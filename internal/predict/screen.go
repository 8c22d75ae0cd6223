package predict

// The screening pass: a single linear sweep over the recorded global
// order maintaining one vector clock per logical thread, with one
// component per thread and every event ticking its own component. Only
// edges that every sync-preserving reordering must respect are applied —
// program order, fork/join, and the Go memory model's channel edges
// (send k happens before receive k completes; receive k happens before
// send k+C completes). Lock release→acquire edges are deliberately
// dropped: a reordering may omit the earlier critical section, so an
// ordering observed through a lock is not a constraint on the search
// space. Barrier/condvar/signal events are chained per object in
// observed order, a conservative over-approximation.
//
// Two conflicting accesses left unordered by this weak relation may race
// in some reordering; pairs it orders cannot, so they are screened out
// before the quadratic-in-candidates closure work.

import "repro/internal/vclock"

// candidate is a conflicting cross-thread pair unordered under the weak
// screen, with a.G < b.G.
type candidate struct {
	a, b *Event
}

func overlaps(a, b *Event) bool {
	return a.Addr < b.Addr+uint64(b.Size) && b.Addr < a.Addr+uint64(a.Size)
}

// screen runs the weak-vector-clock pass and returns up to max unordered
// conflicting pairs in deterministic (trace) order.
func screen(rec *Recording, max int) []candidate {
	n := len(rec.Threads)
	if n < 2 {
		return nil
	}
	tvc := make([]vclock.VC, n)
	for i := range tvc {
		tvc[i] = vclock.New(n)
	}
	sendVC := make(map[uint64][]vclock.VC)
	recvVC := make(map[uint64][]vclock.VC)
	otherVC := make(map[uint64]vclock.VC)

	// accs collects shared accesses with the clock snapshot taken at
	// their execution point.
	type acc struct {
		e    *Event
		snap vclock.VC
	}
	var accs []acc

	for _, g := range rec.order {
		e := &rec.Threads[g.thread][g.index]
		me := &tvc[g.thread]
		if g.done {
			// Send completion: join the receive that freed its slot.
			if need := e.Pos - e.Cap; need >= 0 {
				if rv := recvVC[e.Obj]; need < len(rv) {
					me.Join(rv[need])
				}
			}
			continue
		}
		me.Tick(g.thread)
		switch e.Kind {
		case KindRead, KindWrite:
			accs = append(accs, acc{e: e, snap: me.Copy()})
		case KindFork:
			if e.Child < n {
				tvc[e.Child].Join(*me)
			}
		case KindJoin:
			if e.Child < n {
				me.Join(tvc[e.Child])
			}
		case KindSend:
			sv := sendVC[e.Obj]
			for len(sv) <= e.Pos {
				sv = append(sv, vclock.VC{})
			}
			sv[e.Pos] = me.Copy()
			sendVC[e.Obj] = sv
		case KindRecv:
			// An unrecorded send slot is the empty clock: joining it is a no-op.
			if sv := sendVC[e.Obj]; e.Pos < len(sv) {
				me.Join(sv[e.Pos])
			}
			rv := recvVC[e.Obj]
			for len(rv) <= e.Pos {
				rv = append(rv, vclock.VC{})
			}
			rv[e.Pos] = me.Copy()
			recvVC[e.Obj] = rv
		case KindOther:
			me.Join(otherVC[e.Obj])
			otherVC[e.Obj] = me.Copy()
		case KindAcquire, KindRelease, KindWork:
			// Program order only under the weak screen.
		}
	}

	var out []candidate
	for j := 1; j < len(accs); j++ {
		for i := 0; i < j; i++ {
			a, b := accs[i], accs[j]
			if a.e.Thread == b.e.Thread {
				continue
			}
			if a.e.Kind != KindWrite && b.e.Kind != KindWrite {
				continue
			}
			if !overlaps(a.e, b.e) {
				continue
			}
			// a precedes b in the trace, so only the forward ordering can
			// hold: a is before b iff b's snapshot covers a's own tick.
			if b.snap.Clock(a.e.Thread) >= a.snap.Clock(a.e.Thread) {
				continue
			}
			out = append(out, candidate{a: a.e, b: b.e})
			if len(out) >= max {
				return out
			}
		}
	}
	return out
}
