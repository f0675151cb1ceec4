package engine

import (
	"context"
	"errors"
	"io"
	"sync/atomic"
	"testing"
)

// streamNext adapts a slice of requests into a SolveBatchStream next
// function, optionally failing at a fixed index.
func streamNext(reqs []*Request, failAt int, failErr error) func() (*Request, error) {
	i := 0
	return func() (*Request, error) {
		if i == failAt && failErr != nil {
			return nil, failErr
		}
		if i >= len(reqs) {
			return nil, io.EOF
		}
		r := reqs[i]
		i++
		return r, nil
	}
}

func streamReqs(t *testing.T, count int) []*Request {
	t.Helper()
	reqs := make([]*Request, count)
	// Distinct thread counts let the order check identify each response
	// by the length of its assignment.
	for i, in := range corpus(t, count, 8) {
		reqs[i] = &Request{Instance: in, Backend: "a2", WantUtility: true}
	}
	return reqs
}

// TestSolveBatchStreamMatchesBatch pins the pipelining contract:
// responses come back strictly in input order and bit-identical to the
// plain batch path, regardless of which solve finishes first.
func TestSolveBatchStreamMatchesBatch(t *testing.T) {
	eng := New(Options{Workers: 4})
	defer eng.Close()
	ctx := context.Background()
	reqs := streamReqs(t, 24)

	want, err := eng.SolveBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	var got []*Response
	n, err := eng.SolveBatchStream(ctx, streamNext(reqs, -1, nil), func(req *Request, r *Response) error {
		if want := reqs[len(got)]; req != want {
			t.Errorf("response %d emitted with the wrong request", len(got))
		}
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(reqs) || len(got) != len(reqs) {
		t.Fatalf("emitted %d responses (callback saw %d), want %d", n, len(got), len(reqs))
	}
	for i := range want {
		sameAssignment(t, "stream", got[i].Assignment, want[i].Assignment)
		if got[i].Utility != want[i].Utility {
			t.Fatalf("response %d: utility %v, want %v", i, got[i].Utility, want[i].Utility)
		}
	}
}

// TestSolveBatchStreamSolveError: a mid-stream solve failure surfaces in
// input order — every response before the failing request is emitted,
// nothing after it is.
func TestSolveBatchStreamSolveError(t *testing.T) {
	eng := New(Options{Workers: 4})
	defer eng.Close()
	reqs := streamReqs(t, 12)
	const bad = 7
	reqs[bad] = &Request{Instance: reqs[bad].Instance, Backend: "nope"}

	n, err := eng.SolveBatchStream(context.Background(), streamNext(reqs, -1, nil), func(*Request, *Response) error {
		return nil
	})
	if !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("err = %v, want ErrUnknownBackend", err)
	}
	if n != bad {
		t.Fatalf("emitted %d responses before the failure, want %d", n, bad)
	}
}

// TestSolveBatchStreamNextError: a decode failure takes the slot of the
// request it failed to produce, so earlier responses still emit first
// and the error comes back verbatim.
func TestSolveBatchStreamNextError(t *testing.T) {
	eng := New(Options{Workers: 2})
	defer eng.Close()
	reqs := streamReqs(t, 9)
	const bad = 5
	boom := errors.New("instance 5: mangled")

	n, err := eng.SolveBatchStream(context.Background(), streamNext(reqs, bad, boom), func(*Request, *Response) error {
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n != bad {
		t.Fatalf("emitted %d responses before the decode failure, want %d", n, bad)
	}
}

// TestSolveBatchStreamEmitError: an emit failure stops the stream and
// is returned as the stream error.
func TestSolveBatchStreamEmitError(t *testing.T) {
	eng := New(Options{Workers: 2})
	defer eng.Close()
	reqs := streamReqs(t, 8)
	boom := errors.New("client went away")

	emitted := 0
	n, err := eng.SolveBatchStream(context.Background(), streamNext(reqs, -1, nil), func(*Request, *Response) error {
		if emitted == 4 {
			return boom
		}
		emitted++
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n != 4 {
		t.Fatalf("emitted %d responses before the write failure, want 4", n)
	}
}

// TestSolveBatchStreamBounded: the decoder never runs more than the
// in-flight window (plus the request being decoded) ahead of the
// emitter — the bounded-memory contract. The emitter refuses to advance
// until it observes the bound held at every next call.
func TestSolveBatchStreamBounded(t *testing.T) {
	eng := New(Options{Workers: 1})
	defer eng.Close()
	reqs := streamReqs(t, 30)
	const win = 2*1 + 2 // 2×workers+2

	// emitted crosses goroutines: emit advances it on the caller's
	// goroutine while next reads it on the producer's, so it must be
	// atomic. A stale read only makes the assertion stricter. decoded
	// stays plain — only next (serialized) touches it.
	decoded := 0
	var emitted atomic.Int64
	next := func() (*Request, error) {
		if ahead := decoded - int(emitted.Load()); ahead > win+1 {
			t.Errorf("decoder %d requests ahead of emitter, window is %d", ahead, win)
		}
		if decoded >= len(reqs) {
			return nil, io.EOF
		}
		r := reqs[decoded]
		decoded++
		return r, nil
	}
	n, err := eng.SolveBatchStream(context.Background(), next, func(*Request, *Response) error {
		emitted.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(reqs) {
		t.Fatalf("emitted %d, want %d", n, len(reqs))
	}
}

// TestSolveBatchStreamEmpty: an immediately-exhausted stream emits
// nothing and returns cleanly.
func TestSolveBatchStreamEmpty(t *testing.T) {
	eng := New(Options{Workers: 1})
	defer eng.Close()
	n, err := eng.SolveBatchStream(context.Background(), streamNext(nil, -1, nil), func(*Request, *Response) error {
		t.Fatal("emit called on an empty stream")
		return nil
	})
	if err != nil || n != 0 {
		t.Fatalf("got (%d, %v), want (0, nil)", n, err)
	}
}

// TestSolveBatchStreamCancel: cancelling the caller's context tears the
// stream down with context.Canceled.
func TestSolveBatchStreamCancel(t *testing.T) {
	eng := New(Options{Workers: 2})
	defer eng.Close()
	reqs := streamReqs(t, 16)
	ctx, cancel := context.WithCancel(context.Background())

	n, err := eng.SolveBatchStream(ctx, streamNext(reqs, -1, nil), func(*Request, *Response) error {
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n > len(reqs) {
		t.Fatalf("emitted %d of %d", n, len(reqs))
	}
}
