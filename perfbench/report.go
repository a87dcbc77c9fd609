package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"

	"github.com/spritedht/sprite/internal/ir"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics, its operation counts and every output
// check that failed.
type report struct {
	metrics map[string]metric
	// shown are printed with the metrics but kept out of the JSON result,
	// which carries only metrics steady enough to gate (see README.md).
	shown     map[string]metric
	attempted int64
	failed    int64
	problems  []string
	digest    uint64
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, shown: map[string]metric{}}
}

func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("metric %s is not a number", name)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) show(name, unit string, v float64) { r.shown[name] = metric{Value: v, Unit: unit} }

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// op counts one measured operation; a failed or partial one fails the run,
// since every workload is fault-free.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			r.problem("operation failed: %v", err)
		}
	}
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

// write prints every metric by name and unit, the rank digest, and — as the
// last line — the JSON result object.
func (r *report) write(w io.Writer, workload string, seed int64) error {
	all := map[string]metric{}
	for n, m := range r.shown {
		all[n] = m
	}
	for n, m := range r.metrics {
		all[n] = m
	}
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %16.4f %s\n", n, all[n].Value, all[n].Unit)
	}
	fmt.Fprintf(w, "rank_digest workload=%s seed=%d %016x\n", workload, seed, r.digest)
	for _, p := range r.problems {
		fmt.Fprintf(w, "check failed: %s\n", p)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// rankHash fingerprints one ranking: document IDs and exact score bits.
func rankHash(rl ir.RankedList) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, hit := range rl {
		io.WriteString(h, string(hit.Doc))
		bits := math.Float64bits(hit.Score)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// digestOf folds per-position ranking hashes, in position order, into one
// rank digest.
func digestOf(hashes []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range hashes {
		for i := range buf {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quality is mean P@k and R@k over judged queries.
func quality(rankings []ir.RankedList, queries []rawQuery, k int) ir.Metrics {
	ms := make([]ir.Metrics, len(queries))
	for i, q := range queries {
		ms[i] = ir.Evaluate(rankings[i].Top(k).Docs(), q.q.Relevant)
	}
	return ir.MeanMetrics(ms)
}
