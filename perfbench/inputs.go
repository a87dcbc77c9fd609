package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"github.com/spritedht/sprite/internal/central"
	"github.com/spritedht/sprite/internal/corpus"
	"github.com/spritedht/sprite/internal/querygen"
	"github.com/spritedht/sprite/internal/text"
)

// rawDoc is one generated document as a user would share it: an ID and raw
// text. The program analyzes the text itself.
type rawDoc struct {
	id   string
	text string
}

// rawQuery is one generated query as a user would type it, with the
// relevance judgments that score its answers.
type rawQuery struct {
	q    *corpus.Query
	text string
}

// inputs is everything a workload feeds the program, derived from one seed.
type inputs struct {
	docs  []rawDoc
	train []rawQuery
	test  []rawQuery
}

// subSeed derives an independent stream seed from the workload seed, so the
// corpus, the query generator, the train/test split and the query streams
// never share a random sequence.
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) & math.MaxInt64)
}

// makeInputs synthesizes the judged corpus (corpus), derives the query set
// (querygen, judged against the centralized index), splits it into equal
// training and test halves, and renders documents and queries as raw text.
func makeInputs(seed int64, numDocs, numQueries int) (*inputs, error) {
	col, err := corpus.Synthesize(corpus.SynthConfig{NumDocs: numDocs, NumQueries: numQueries, Seed: subSeed(seed, 1)})
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	gen, err := querygen.Generate(col, central.New(col.Corpus), querygen.Config{Seed: subSeed(seed, 2)})
	if err != nil {
		return nil, fmt.Errorf("querygen: %w", err)
	}
	in := &inputs{}
	var a text.Analyzer
	for _, d := range col.Corpus.Docs() {
		raw := renderDoc(d.TF)
		// The synthetic vocabulary is stable under the analyzer; a document
		// whose text does not analyze back to its term frequencies would
		// make the share path index something other than the judged corpus.
		tf, n := a.TermFreq(raw)
		if n != d.Length || len(tf) != len(d.TF) {
			return nil, fmt.Errorf("document %s does not survive text analysis", d.ID)
		}
		in.docs = append(in.docs, rawDoc{id: string(d.ID), text: raw})
	}
	perm := rand.New(rand.NewSource(subSeed(seed, 3))).Perm(len(gen.Queries))
	for i, pi := range perm {
		q := gen.Queries[pi]
		rq := rawQuery{q: q, text: strings.Join(q.Terms, " ")}
		if got := a.Terms(rq.text); strings.Join(got, " ") != rq.text {
			return nil, fmt.Errorf("query %s does not survive text analysis", q.ID)
		}
		if i < len(perm)/2 {
			in.train = append(in.train, rq)
		} else {
			in.test = append(in.test, rq)
		}
	}
	return in, nil
}

// renderDoc writes a term-frequency map as raw text, terms in sorted order
// so the same document always renders to the same bytes.
func renderDoc(tf map[string]int) string {
	terms := make([]string, 0, len(tf))
	for t := range tf {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	var b strings.Builder
	for _, t := range terms {
		for i := 0; i < tf[t]; i++ {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(t)
		}
	}
	return b.String()
}

// zipfStream draws volume indices in [0, n) whose popularity follows
// Zipf(slope), by inverse-CDF sampling — the paper's w-zipf query workload.
func zipfStream(n, volume int, slope float64, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	cum := make([]float64, n)
	total := 0.0
	for r := range cum {
		total += 1 / math.Pow(float64(r+1), slope)
		cum[r] = total
	}
	out := make([]int, volume)
	for i := range out {
		x := rng.Float64() * total
		out[i] = sort.SearchFloat64s(cum, x)
		if out[i] >= n {
			out[i] = n - 1
		}
	}
	return out
}
