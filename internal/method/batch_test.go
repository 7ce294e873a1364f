package method

import (
	"context"
	"errors"
	"testing"
)

// plain answers d(s,t) = s+t one pair at a time and counts the calls;
// onCall, when set, runs before each answer.
type plain struct {
	calls  int
	onCall func(call int)
}

func (p *plain) Distance(s, t int32) int32 {
	p.calls++
	if p.onCall != nil {
		p.onCall(p.calls)
	}
	return s + t
}
func (p *plain) UpperBound(s, t int32) int32 { return s + t }

// vectorized has both batch capabilities, which answer -(s+t) so a test
// can tell which path produced a result.
type vectorized struct {
	plain
	batches, manys int
}

func (v *vectorized) DistanceBatch(pairs [][2]int32, dst []int32) []int32 {
	v.batches++
	dst = sizeDst(dst, len(pairs))
	for i, p := range pairs {
		dst[i] = -(p[0] + p[1])
	}
	return dst
}

func (v *vectorized) DistanceMany(source int32, targets []int32, dst []int32) []int32 {
	v.manys++
	dst = sizeDst(dst, len(targets))
	for i, t := range targets {
		dst[i] = -(source + t)
	}
	return dst
}

// index is a DistanceIndex handing out the searcher it is given.
type index struct{ sr Searcher }

func (ix index) Distance(s, t int32) int32   { return ix.sr.Distance(s, t) }
func (ix index) UpperBound(s, t int32) int32 { return ix.sr.UpperBound(s, t) }
func (ix index) NewSearcher() Searcher       { return ix.sr }
func (ix index) Stats() Stats                { return Stats{} }

func TestDistanceBatchDispatch(t *testing.T) {
	pairs := [][2]int32{{1, 2}, {3, 3}, {0, 9}}

	p := &plain{}
	got := DistanceBatch(p, pairs, nil)
	if len(got) != 3 || got[0] != 3 || got[1] != 6 || got[2] != 9 || p.calls != 3 {
		t.Fatalf("fallback: %v after %d Distance calls", got, p.calls)
	}
	v := &vectorized{}
	got = DistanceBatch(v, pairs, nil)
	if len(got) != 3 || got[0] != -3 || got[2] != -9 || v.batches != 1 || v.calls != 0 {
		t.Fatalf("capability: %v, %d batch calls, %d Distance calls", got, v.batches, v.calls)
	}

	// dst is reused when it has the capacity, replaced when it does not.
	roomy := make([]int32, 1, 8)
	if got = DistanceBatch(p, pairs, roomy); len(got) != 3 || &got[0] != &roomy[0] {
		t.Fatal("dst with capacity not reused")
	}
	if got = DistanceBatch(p, pairs, make([]int32, 0, 2)); len(got) != 3 || got[2] != 9 {
		t.Fatalf("short dst: %v", got)
	}
	if got = DistanceBatch(p, nil, nil); len(got) != 0 {
		t.Fatalf("no pairs: %v", got)
	}
}

func TestDistanceManyDispatch(t *testing.T) {
	targets := []int32{4, 5}
	p := &plain{}
	if got := DistanceMany(p, 10, targets, nil); len(got) != 2 || got[0] != 14 || got[1] != 15 || p.calls != 2 {
		t.Fatalf("fallback: %v after %d Distance calls", got, p.calls)
	}
	v := &vectorized{}
	if got := DistanceMany(v, 10, targets, nil); len(got) != 2 || got[0] != -14 || v.manys != 1 || v.calls != 0 {
		t.Fatalf("capability: %v, %d many calls, %d Distance calls", got, v.manys, v.calls)
	}
}

// TestDistanceBatchContextStops: a cancellation is seen at the next chunk
// boundary, so at most CancelCheckEvery pairs are answered after it, and
// dst comes back cut to the answers that were computed.
func TestDistanceBatchContextStops(t *testing.T) {
	pairs := make([][2]int32, 5*CancelCheckEvery+7)
	for i := range pairs {
		pairs[i] = [2]int32{int32(i), 1}
	}
	const cancelAt = CancelCheckEvery + 500
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &plain{onCall: func(call int) {
		if call == cancelAt {
			cancel()
		}
	}}
	got, err := DistanceBatchContext(ctx, p, pairs, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if len(got) != p.calls || len(got) < cancelAt || len(got) >= cancelAt+CancelCheckEvery {
		t.Fatalf("cancelled at pair %d: %d answers returned, %d computed", cancelAt, len(got), p.calls)
	}
	for i, d := range got {
		if d != int32(i)+1 {
			t.Fatalf("answer %d = %d", i, d)
		}
	}

	// Already cancelled: nothing is answered.
	if got, err = DistanceBatchContext(ctx, p, pairs, nil); len(got) != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: %d answers, err %v", len(got), err)
	}
	// Not cancelled: everything is, through the vectorized path per chunk.
	v := &vectorized{}
	got, err = DistanceBatchContext(context.Background(), v, pairs, nil)
	if err != nil || len(got) != len(pairs) || v.batches != 6 || got[len(pairs)-1] != -int32(len(pairs)) {
		t.Fatalf("uncancelled: %d answers in %d chunks, err %v", len(got), v.batches, err)
	}
}

func TestCapabilitiesOf(t *testing.T) {
	for _, tc := range []struct {
		ix   DistanceIndex
		want Capabilities
		text string
	}{
		{index{&plain{}}, Capabilities{}, "none"},
		{index{&vectorized{}}, Capabilities{Batch: true, Source: true}, "batch,source"},
	} {
		got := CapabilitiesOf(tc.ix)
		if got != tc.want || got.String() != tc.text {
			t.Errorf("%T: %+v %q, want %+v %q", tc.ix, got, got, tc.want, tc.text)
		}
	}
}
