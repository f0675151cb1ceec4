package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// scriptBytes flattens every generated request script of one seed:
// the bodies in send order plus the churn script's predicted counts.
func scriptBytes(t *testing.T, seed uint64) []byte {
	t.Helper()
	var b bytes.Buffer
	warm, timed := smallScript(seed, 1)
	for _, body := range append(warm, timed...) {
		b.Write(body)
	}
	pool, batches := batchScript(seed, 1)
	for _, picks := range batches {
		b.Write(batchBody(pool, picks))
	}
	for s := 0; s < slices; s++ {
		sc := newChurnScript(seed, s, 4)
		for _, reqs := range [][]churnReq{sc.prefill, sc.timed} {
			for i := range reqs {
				b.WriteString(string(reqs[i].kind) + reqs[i].query() + "\n")
				b.Write(reqs[i].body)
			}
		}
		counts, err := json.Marshal([]cacheCounts{sc.prefillRelay, sc.prefillNode, sc.relay, sc.node})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(counts)
	}
	return b.Bytes()
}

// The same seed must give byte-identical request scripts and identical
// predicted cache counts; a different seed must give different ones.
func TestScriptsAreAPureFunctionOfTheSeed(t *testing.T) {
	a, b, c := scriptBytes(t, 7), scriptBytes(t, 7), scriptBytes(t, 8)
	if !bytes.Equal(a, b) {
		t.Fatal("two generations from seed 7 differ")
	}
	if bytes.Equal(a, c) {
		t.Fatal("seeds 7 and 8 generated identical scripts")
	}
}

func TestChurnPredictionsDifferAcrossSeeds(t *testing.T) {
	x, y := newChurnScript(1, 0, 12), newChurnScript(2, 0, 12)
	if x.node == y.node && x.relay == y.relay && bytes.Equal(x.timed[0].body, y.timed[0].body) {
		t.Fatal("seeds 1 and 2 gave the same churn script")
	}
}

// The churn script must exercise every outcome at both tiers, and its
// relay predictions follow from the request kinds alone.
func TestChurnScriptCoversEveryOutcome(t *testing.T) {
	sc := newChurnScript(3, 0, 12)
	kinds := map[byte]int{}
	for i := range sc.timed {
		kinds[sc.timed[i].kind]++
	}
	if sc.relay.Hits != kinds[kindRepeat] || sc.relay.Misses != kinds[kindDrift]+kinds[kindFresh] {
		t.Fatalf("relay prediction %+v does not match request kinds %v", sc.relay, kinds)
	}
	if sc.node.Hits != kinds[kindCheck] {
		t.Fatalf("node hits %d, want one per checked repeat (%d)", sc.node.Hits, kinds[kindCheck])
	}
	if sc.node.Warm == 0 || sc.node.Misses <= sc.node.Warm {
		t.Fatalf("node prediction %+v lacks warm starts or cold misses", sc.node)
	}
	if sc.distinctKeys() != len(sc.prefill)+kinds[kindDrift]+kinds[kindFresh] {
		t.Fatalf("distinct keys %d, want prefill + drifts + fresh", sc.distinctKeys())
	}
}
