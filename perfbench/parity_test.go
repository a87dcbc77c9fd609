package main

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/spritedht/sprite"
	"github.com/spritedht/sprite/internal/telemetry"
)

// TestStackParity drives the benchmark-assembled stack — traced, with the
// recording wrappers and the telemetry registry on — and a sprite.New
// network with the same options through the same operations on the same
// generated inputs, and requires identical rankings and, on the simulator,
// identical message counts. It is what lets the benchmark claim it measures
// the path users run.
func TestStackParity(t *testing.T) {
	in, err := makeInputs(11, 300, 12)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts sprite.Options
		cfg  stackConfig
		// joiner names the peer a churn wave adds; "" runs no churn.
		joiner string
	}{
		{
			name: "search",
			opts: sprite.Options{Peers: 64, Seed: 11, VirtualTime: true, Parallelism: fanoutParallelism},
			cfg:  stackConfig{peers: 64, seed: 11, virtual: true, parallelism: fanoutParallelism, clients: 1},
		},
		{
			name:   "maintain",
			opts:   sprite.Options{Peers: 32, Seed: 11, Replicas: maintainReplicas, Parallelism: fanoutParallelism},
			cfg:    stackConfig{peers: 32, seed: 11, replicas: maintainReplicas, parallelism: fanoutParallelism, clients: 1},
			joiner: "joiner0",
		},
		{
			name: "deploy",
			opts: sprite.Options{Peers: 8, Seed: 11, TCP: true, Parallelism: fanoutParallelism,
				Cache: sprite.CacheOptions{Enabled: true, PostingsEntries: cacheEntries, PostingsTTL: cacheTTL,
					ResultEntries: cacheEntries, ResultTTL: cacheTTL},
				Resilience: sprite.ResilienceOptions{MaxRetries: 1, BaseBackoff: time.Millisecond, PerCallTimeout: 2 * time.Second}},
			cfg: func() stackConfig {
				c := deployStack(11, nil, nil)
				c.peers, c.names = 8, nil
				return c
			}(),
			joiner: fmt.Sprintf("127.0.0.1:%d", deployPortBase+deployPeers),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			facade, err := sprite.New(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			if tc.opts.TCP {
				// Rankings depend on which peer holds which term, so the
				// socket deployment reuses the facade's first peer addresses.
				cfg.names = facade.Peers()
			}
			want, wantMsgs := driveFacade(t, facade, in, tc.joiner)
			facade.Close()

			cfg.tel, cfg.rec = telemetry.NewRegistry(), newRecorder()
			cfg.rec.on.Store(true)
			s, err := buildStack(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.close()
			got, gotMsgs := driveStack(t, s, in, tc.joiner)

			if len(got) != len(want) {
				t.Fatalf("%d rankings from the benchmark stack, %d from sprite.New", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("ranking %d differs:\n benchmark %s\n sprite.New %s", i, got[i], want[i])
				}
			}
			if !tc.opts.TCP && gotMsgs != wantMsgs {
				t.Fatalf("messages: benchmark stack %d, sprite.New %d", gotMsgs, wantMsgs)
			}
			if len(cfg.rec.spans) == 0 {
				t.Fatal("the recording wrappers saw no spans")
			}
		})
	}
}

// The parity script: training searches, shares, one learning round, then
// (optionally) a churn wave, then the test queries.

func driveFacade(t *testing.T, n *sprite.Network, in *inputs, joiner string) ([]string, int64) {
	var out []string
	body := func() {
		peers := n.Peers()
		for i, q := range in.train {
			if _, err := n.Search(peers[i%len(peers)], q.text, topK); err != nil {
				t.Fatalf("train: %v", err)
			}
		}
		for i, d := range in.docs {
			if err := n.Share(peers[i%len(peers)], d.id, d.text); err != nil {
				t.Fatalf("share: %v", err)
			}
		}
		if _, err := n.Learn(); err != nil {
			t.Fatalf("learn: %v", err)
		}
		if joiner != "" {
			if err := n.JoinPeer(joiner); err != nil {
				t.Fatalf("join: %v", err)
			}
			if _, err := n.LeavePeer(peers[3]); err != nil {
				t.Fatalf("leave: %v", err)
			}
			n.Repair()
			peers = n.Peers()
		}
		for i, q := range in.test {
			res, err := n.Search(peers[i%len(peers)], q.text, topK)
			if err != nil {
				t.Fatalf("search: %v", err)
			}
			line := ""
			for _, r := range res {
				line += fmt.Sprintf("%s:%x ", r.DocID, r.Score)
			}
			out = append(out, line)
		}
	}
	if clk := n.VirtualClock(); clk != nil {
		clk.Run(body)
	} else {
		body()
	}
	return out, n.Stats().Messages
}

func driveStack(t *testing.T, s *stack, in *inputs, joiner string) ([]string, int64) {
	var out []string
	s.run(func() {
		bg := context.Background()
		peers := s.peerAddrs()
		for i, q := range in.train {
			if _, err := s.search(s.begin(bg), peers[i%len(peers)], q.text, topK); err != nil {
				t.Fatalf("train: %v", err)
			}
		}
		for i, d := range in.docs {
			if err := s.share(s.begin(bg), peers[i%len(peers)], d); err != nil {
				t.Fatalf("share: %v", err)
			}
		}
		if _, err := s.learn(s.begin(bg)); err != nil {
			t.Fatalf("learn: %v", err)
		}
		if joiner != "" {
			if err := s.join(joiner); err != nil {
				t.Fatalf("join: %v", err)
			}
			if err := s.leave(peers[3]); err != nil {
				t.Fatalf("leave: %v", err)
			}
			s.repair()
			peers = s.peerAddrs()
		}
		for i, q := range in.test {
			rl, err := s.search(s.begin(bg), peers[i%len(peers)], q.text, topK)
			if err != nil {
				t.Fatalf("search: %v", err)
			}
			line := ""
			for _, h := range rl {
				line += fmt.Sprintf("%s:%x ", h.Doc, h.Score)
			}
			out = append(out, line)
		}
	})
	msgs, _ := s.messages()
	return out, msgs
}
