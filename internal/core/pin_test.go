package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"aa/internal/rng"
)

// TestSolverBitsPinned pins every thread's server id and the exact bits
// of its allocation for each non-paper solver over a seeded corpus. The
// figure CSVs print four decimals, so a change that moves an allocation
// by a few ULPs (a different summation order inside a per-server split,
// say) shows up here and nowhere else.
func TestSolverBitsPinned(t *testing.T) {
	want := map[string]string{
		"uu":         "ccc845762352af379b9b984373446158f967b7226483df213f990f979f2cba00",
		"ur":         "31d37892f4939775b574830457fc05b6e10f80d949c0ceb8558b081b8dd4775f",
		"ru":         "f2b84c5e2099fffb88d7255d6a29c2b20f2273799cc52b4d70256ff86c6e57c5",
		"rr":         "1b1adce7d6fc1f6ba4cdb858c832e599d1da00306aeb2d5f8f124d2b9aea0dde",
		"assign1":    "c75a8a5b44900d385180fc614007afe854e86fedef14f36766b97d5c3baf8101",
		"assign2":    "18b5424300678919954419bc0554331137d55ab67a8fd26aa853417f717fa695",
		"polish":     "1433943e07ca06a373e19fc8134b06291f23891302decb7079421c72a2d1a85d",
		"greedy":     "de5571a5bceaa0b2793c982401ea8706506edf3670c4917660cd9a3d6a9370a2",
		"improve":    "f7f54e8276fa7033346c6856a20330f1aed259b5a3128be941d4998668c700a2",
		"bnb":        "b5e22bc283701712cbaaa40b4b5ca21338d519640ed1179db8a79c07c27d74f8",
		"exhaustive": "338b663541e3f5f69f237017667b31ebef573430333996ee656b4fa059da42a6",
	}
	sums := map[string]hash.Hash{}
	for name := range want {
		sums[name] = sha256.New()
	}
	put := func(name string, a Assignment) {
		var b [8]byte
		h := sums[name]
		for i := range a.Server {
			binary.LittleEndian.PutUint64(b[:], uint64(int64(a.Server[i])))
			h.Write(b[:])
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(a.Alloc[i]))
			h.Write(b[:])
		}
	}
	ctx := context.Background()
	base := rng.New(2201)
	for trial := 0; trial < 40; trial++ {
		r := base.Split(uint64(trial))
		in := randomInstance(r, 1+r.Intn(9), 1+r.Intn(4), 100)
		put("uu", AssignUU(in))
		put("ur", AssignUR(in, r.Split(1)))
		put("ru", AssignRU(in, r.Split(2)))
		rr := AssignRR(in, r.Split(3))
		put("rr", rr)
		put("assign1", Assign1(in))
		a2 := Assign2(in)
		put("assign2", a2)
		put("polish", PolishAllocations(in, a2))
		put("polish", PolishAllocations(in, rr))
		put("greedy", AssignGreedyMarginal(in))
		for _, start := range []Assignment{rr, a2} {
			imp, _, err := Improve(ctx, in, start, 0)
			if err != nil {
				t.Fatal(err)
			}
			put("improve", imp)
		}
		bnb, err := BranchAndBound(ctx, in, 0)
		if err != nil {
			t.Fatal(err)
		}
		put("bnb", bnb)
		ex, err := Exhaustive(in)
		if err != nil {
			t.Fatal(err)
		}
		put("exhaustive", ex)
	}
	for name, w := range want {
		if got := hex.EncodeToString(sums[name].Sum(nil)); got != w {
			t.Errorf("%s: digest %s, want %s", name, got, w)
		}
	}
}
