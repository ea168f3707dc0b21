package trace

import (
	"strings"
	"testing"
)

func TestSinkMergeCanonicalOrder(t *testing.T) {
	s := New(ClassAll)
	s.Start(3)
	// Emit out of global clock order across ranks; per-rank clocks are
	// non-decreasing as in a real capture.
	s.Buf(1, ClassOp).Emit(EvOp, 50, OpGet, 0, 60)
	s.Buf(0, ClassOp).Emit(EvOp, 10, OpPut, 1, 20)
	s.Buf(0, ClassLock).Emit(EvAcqStart, 10, 0, 1, 0)
	s.Buf(2, ClassSched).Emit(EvBlock, 10, 0, 0, 0)
	s.Buf(0, ClassLock).Emit(EvAcquired, 70, 0, 1, 0)

	ev := s.Events()
	if len(ev) != 5 {
		t.Fatalf("got %d events, want 5", len(ev))
	}
	want := []struct {
		clock int64
		rank  int32
		seq   uint32
	}{
		{10, 0, 0}, {10, 0, 1}, {10, 2, 0}, {50, 1, 0}, {70, 0, 2},
	}
	for i, w := range want {
		e := ev[i]
		if e.Clock != w.clock || e.Rank != w.rank || e.Seq != w.seq {
			t.Errorf("event %d = %v, want clock=%d rank=%d seq=%d", i, e, w.clock, w.rank, w.seq)
		}
	}
}

func TestSinkMaskFiltersAtEmission(t *testing.T) {
	s := New(ClassLock)
	s.Start(1)
	if b := s.Buf(0, ClassCharge); b != nil {
		t.Fatalf("charge buf should be nil under a lock-only mask")
	}
	if b := s.Buf(0, ClassSched); b != nil {
		t.Fatalf("sched buf should be nil under a lock-only mask")
	}
	b := s.Buf(0, ClassLock)
	if b == nil {
		t.Fatal("lock buf missing")
	}
	b.Emit(EvAcqStart, 1, 0, 1, 0)
	b.Emit(EvAcquired, 2, 0, 1, 0)
	ev := s.Events()
	if len(ev) != 2 || ev[0].Seq != 0 || ev[1].Seq != 1 {
		t.Fatalf("masked-out classes must not consume seq numbers: %v", ev)
	}
}

func TestSinkStartResets(t *testing.T) {
	s := New(ClassAll)
	s.Start(2)
	s.Buf(0, ClassOp).Emit(EvOp, 1, OpPut, 1, 2)
	s.Start(2)
	if s.Len() != 0 {
		t.Fatalf("Start must clear buffers, have %d events", s.Len())
	}
	s.Buf(0, ClassOp).Emit(EvOp, 1, OpPut, 1, 2)
	if ev := s.Events(); ev[0].Seq != 0 {
		t.Fatalf("Start must reset seq, got %d", ev[0].Seq)
	}
	// nil sink and masked class are both emission no-ops via nil bufs.
	var nilSink *Sink
	if nilSink.Buf(0, ClassOp) != nil {
		t.Fatal("nil sink must hand out nil bufs")
	}
}

func TestBufResetKeepsSeq(t *testing.T) {
	s := New(ClassCharge)
	s.Start(1)
	b := s.Buf(0, ClassCharge)
	b.Emit(EvAdvance, 1, 1, 0, 0)
	b.Emit(EvAdvance, 2, 1, 0, 0)
	b.Reset()
	b.Emit(EvAdvance, 3, 1, 0, 0)
	ev := s.Events()
	if len(ev) != 1 || ev[0].Seq != 2 {
		t.Fatalf("Reset must keep counting seq: %v", ev)
	}
}

func TestKindClassAndFilter(t *testing.T) {
	// EvDispatch is a ClassCharge diagnostic: who holds the token between
	// observable operations depends on the publication mode.
	cases := map[Kind]Class{
		EvBlock: ClassSched, EvWake: ClassSched, EvBarrier: ClassSched,
		EvOp:       ClassOp,
		EvAcqStart: ClassLock, EvAcquired: ClassLock, EvRelease: ClassLock, EvAcqTimeout: ClassLock,
		EvAdvance: ClassCharge, EvFlush: ClassCharge, EvDispatch: ClassCharge,
	}
	if len(cases) != int(numKinds) {
		t.Errorf("class table covers %d of %d kinds", len(cases), numKinds)
	}
	for k, want := range cases {
		if got := KindClass(k); got != want {
			t.Errorf("KindClass(%v) = %v, want %v", k, got, want)
		}
	}
	events := []Event{
		{Kind: EvOp}, {Kind: EvAdvance}, {Kind: EvAcquired}, {Kind: EvDispatch}, {Kind: EvWake},
	}
	got := Filter(events, ClassSemantic)
	if len(got) != 3 {
		t.Fatalf("Filter(semantic) kept %d events, want 3", len(got))
	}
	for _, e := range got {
		if e.Kind == EvAdvance || e.Kind == EvDispatch {
			t.Fatalf("Filter kept the mode-dependent %v under the semantic mask", e.Kind)
		}
	}
}

func TestCSVDeterministic(t *testing.T) {
	events := []Event{
		{Clock: 10, Rank: 0, Seq: 0, Kind: EvAcqStart, Arg0: 3, Arg1: 1},
		{Clock: 20, Rank: 0, Seq: 1, Kind: EvAcquired, Arg0: 3, Arg1: 1, Arg2: 0},
	}
	var a, b strings.Builder
	if err := WriteCSV(&a, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&b, events); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("CSV export not deterministic")
	}
	want := "clock,rank,seq,kind,arg0,arg1,arg2\n" +
		"10,0,0,acq-start,3,1,0\n" +
		"20,0,1,acquired,3,1,0\n"
	if a.String() != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", a.String(), want)
	}
}
