// Hierarchical timing wheel: the engine's event queue (DESIGN.md §14).
//
// The binary event heap (eventHeap, retained below as the far-future
// overflow level and as the reference oracle for equivalence gates) costs
// O(log n) pointer-chasing sifts per schedule and per pop. Simulation
// event times are overwhelmingly near-future — a task completion lands a
// few service times ahead of the clock, an arrival one interarrival ahead
// — so the wheel specializes for that case: virtual time is quantized
// into 1/64 ms ticks and an event is appended, unsorted and O(1), to the
// slot of its tick in a 4-level × 64-slot hierarchy (level l slots cover
// 64^l ticks; one uint64 occupancy bitmap per level makes empty-slot
// skipping a TrailingZeros64). When the cursor reaches a tick, its slot
// is sorted once by (at, seq) and becomes the current batch: events at
// the same tick — and in particular at the identical virtual time — are
// then drained by a cursor increment with no re-sifting between them
// (batched same-tick dispatch). Events scheduled at or before the
// cursor's tick while the batch drains are merge-inserted into the
// sorted remainder, so the pop sequence is exactly the heap's (at, seq)
// total order: any event in an earlier tick pops first, ties within a
// tick are ordered by the sort, and a total order admits only one pop
// sequence — which is why wheel results are bit-identical to heap
// results (gated by the perf-smoke cluster run, the golden shard matrix,
// and the randomized wheel-vs-heap property and fuzz tests).
//
// Events beyond the top level's aligned window (2^24 ticks ≈ 4.4
// virtual minutes ahead) overflow into the retained binary heap and
// migrate back into the wheel when the cursor's window reaches them.
// Cascading re-files a higher-level slot's events one level down when
// the cursor enters their group; each event cascades at most
// wheelLevels-1 times, so schedule and pop stay O(1) amortized.
//
// The wheel allocates only to grow slot slices and the overflow heap;
// both keep their capacity across Reset, so a pooled engine reaches a
// steady state with no per-event allocations (the cluster AllocsPerRun
// proofs cover the wheel on the simulator's hot path).
package sim

import "math/bits"

// Wheel geometry. 6 bits per level keeps one uint64 occupancy bitmap per
// level; 4 levels cover 2^24 ticks before the far heap takes over.
const (
	wheelBits     = 6
	wheelSlots    = 1 << wheelBits
	wheelMask     = wheelSlots - 1
	wheelLevels   = 4
	wheelSpanBits = wheelBits * wheelLevels
)

// wheelTicksPerMs sets the level-0 resolution: 1/64 ms per tick. Any
// positive resolution yields the same pop order (ticks only bucket the
// sort); the value only moves work between the batch sort and cursor
// advancing. 1/64 keeps batches inside the insertion-sort regime at the
// simulator's millisecond event densities (coarser ticks push them into
// heapsort, which measured ~1.7x slower end to end) while one top-level
// window still spans ~4.4 virtual minutes.
const wheelTicksPerMs = 64.0

// maxWheelTick caps the float→tick conversion: times at or beyond
// 2^62 ticks (including +Inf and NaN, whose comparisons fail the guard)
// are filed under a single far-future tick and ordered by (at, seq) in
// the overflow heap, matching the heap engine's behavior for them.
const (
	maxWheelTick      = uint64(1) << 62
	maxWheelTickFloat = float64(maxWheelTick)
)

// tickOf quantizes a virtual time to its wheel tick. It is monotone in
// at, so tick(a) < tick(b) implies a < b — the property the pop-order
// proof rests on.
//
//tg:hotpath
func tickOf(at Time) uint64 {
	t := at * wheelTicksPerMs
	if !(t < maxWheelTickFloat) {
		return maxWheelTick
	}
	return uint64(t)
}

// eventBefore reports whether a must pop before b: the (at, seq) total
// order shared by the wheel, the reference heap, and the sort.
//
//tg:hotpath
func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// wheel is the hierarchical timing wheel. The zero value is ready to use.
//
// Invariants:
//   - cur only moves forward; every non-batch event has tick > cur and
//     sits in the slot of its tick at the lowest level whose aligned
//     window contains it (or in the far heap beyond the top window).
//   - The current batch is slots[0][cur&wheelMask]: entries below bpos
//     are consumed (zeroed), entries at or above it are sorted by
//     (at, seq) and may carry ticks <= cur (late same- or past-tick
//     schedules merge-insert into the remainder).
//   - bpos is 0 whenever the batch is empty; a slot's occupancy bit is
//     set exactly while the slot is non-empty.
type wheel struct {
	slots [wheelLevels][wheelSlots][]event
	occ   [wheelLevels]uint64
	cur   uint64 // tick of the current batch
	bpos  int    // batch drain cursor
	n     int    // pending events, all levels + far
	far   eventHeap
}

// schedule files *ev. O(1) amortized: an append for future ticks, a
// sorted insert into the small current batch for same- or past-tick
// events, a heap push beyond the top window.
//
//tg:hotpath
func (w *wheel) schedule(ev *event) {
	w.n++
	w.place(ev)
}

// place files *ev without counting it (shared by schedule, cascades, and
// far-heap rebasing): the one copy of the event into queue storage.
//
//tg:hotpath
func (w *wheel) place(ev *event) {
	t := tickOf(ev.at)
	if t <= w.cur {
		// At or behind the cursor (at >= now still holds): merge into the
		// sorted batch so it pops in exact (at, seq) position.
		w.batchInsert(ev)
		return
	}
	x := t ^ w.cur
	if x>>wheelSpanBits != 0 {
		w.far.push(ev) // beyond the top aligned window
		return
	}
	l := (bits.Len64(x) - 1) / wheelBits
	s := (t >> (uint(l) * wheelBits)) & wheelMask
	w.slots[l][s] = append(w.slots[l][s], *ev)
	w.occ[l] |= 1 << s
}

// batchInsert places *ev into the current batch's sorted remainder.
//
//tg:hotpath
func (w *wheel) batchInsert(ev *event) {
	sp := &w.slots[0][w.cur&wheelMask]
	b := *sp
	lo, hi := w.bpos, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eventBefore(&b[mid], ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b = append(b, event{}) //tg:cold slot warm-up; capacity persists across Reset
	copy(b[lo+1:], b[lo:])
	b[lo] = *ev
	*sp = b
	w.occ[0] |= 1 << (w.cur & wheelMask)
}

// peek returns the next event to pop without removing it, or nil when
// the wheel is empty. It may advance the cursor (cascading higher
// levels) to load the next batch; that is safe against later schedules
// because place clamps at-or-behind-cursor events into the batch.
//
//tg:hotpath
func (w *wheel) peek() *event {
	if w.n == 0 {
		return nil
	}
	sp := &w.slots[0][w.cur&wheelMask]
	if w.bpos >= len(*sp) {
		w.advance()
		sp = &w.slots[0][w.cur&wheelMask]
	}
	return &(*sp)[w.bpos]
}

// drop removes the event peek just returned (peek has already loaded
// its batch, so the head is the batch entry at bpos).
//
//tg:hotpath
func (w *wheel) drop() {
	sp := &w.slots[0][w.cur&wheelMask]
	b := *sp
	b[w.bpos] = event{} // release the callback and payload for GC
	w.bpos++
	w.n--
	if w.bpos == len(b) {
		*sp = b[:0]
		w.occ[0] &^= 1 << (w.cur & wheelMask)
		w.bpos = 0
	}
}

// advance moves the cursor to the next non-empty tick and loads its
// batch. Called only when the batch is empty and n > 0.
//
//tg:hotpath
func (w *wheel) advance() {
	for {
		// Next occupied level-0 slot after the cursor in its window.
		c0 := w.cur & wheelMask
		if m := w.occ[0] &^ (uint64(1)<<(c0+1) - 1); m != 0 {
			s := uint64(bits.TrailingZeros64(m))
			w.cur = w.cur&^uint64(wheelMask) | s
			sortEvents(w.slots[0][s])
			return
		}
		if w.cascade() {
			// Events moved down; some may have landed in the batch itself.
			if sp := &w.slots[0][w.cur&wheelMask]; w.bpos < len(*sp) {
				return
			}
			continue
		}
		w.rebase()
		if sp := &w.slots[0][w.cur&wheelMask]; w.bpos < len(*sp) {
			return
		}
	}
}

// cascade re-files the next occupied higher-level slot's events one or
// more levels down, jumping the cursor to the start of that slot's tick
// group. Reports whether a slot was cascaded.
func (w *wheel) cascade() bool {
	for l := 1; l < wheelLevels; l++ {
		shift := uint(l) * wheelBits
		cl := (w.cur >> shift) & wheelMask
		m := w.occ[l] &^ (uint64(1)<<(cl+1) - 1)
		if m == 0 {
			continue
		}
		s := uint64(bits.TrailingZeros64(m))
		g := (w.cur>>shift)&^uint64(wheelMask) | s
		w.cur = g << shift
		sp := &w.slots[l][s]
		evs := *sp
		w.occ[l] &^= 1 << s
		for i := range evs {
			w.place(&evs[i])
			evs[i] = event{}
		}
		*sp = evs[:0]
		return true
	}
	return false
}

// rebase jumps the cursor to the far heap's earliest event and migrates
// every far event inside the new top-level window back into the wheel.
// Called only when every wheel level is exhausted and n > 0 (so the far
// heap is non-empty).
func (w *wheel) rebase() {
	w.cur = tickOf(w.far[0].at)
	top := w.cur >> wheelSpanBits
	// Everything moved lands inside the new window, so place never pushes
	// back onto the far heap while its head is being read.
	for len(w.far) > 0 && tickOf(w.far[0].at)>>wheelSpanBits == top {
		w.place(&w.far[0])
		w.far.drop()
	}
}

// reset empties the wheel for reuse, zeroing stored events (releasing
// their callbacks and payloads for GC) while keeping every slot's and
// the far heap's capacity.
func (w *wheel) reset() { w.drain(nil) }

// drain is reset that first passes every pending event's payload to
// visit (when non-nil): level by level, slot by slot, then the far heap.
// The current batch's consumed entries are already zeroed and skipped.
func (w *wheel) drain(visit func(arg any, val float64)) {
	for l := 0; l < wheelLevels; l++ {
		m := w.occ[l]
		for m != 0 {
			s := bits.TrailingZeros64(m)
			m &^= 1 << s
			sp := &w.slots[l][s]
			for i := range *sp {
				if ev := &(*sp)[i]; visit != nil && ev.h != nil {
					visit(ev.arg, ev.val)
				}
				(*sp)[i] = event{}
			}
			*sp = (*sp)[:0]
		}
		w.occ[l] = 0
	}
	for i := range w.far {
		if visit != nil {
			visit(w.far[i].arg, w.far[i].val)
		}
		w.far[i] = event{}
	}
	w.far = w.far[:0]
	w.cur, w.bpos, w.n = 0, 0, 0
}

// sortEvents orders a slot by (at, seq) in place with no allocation:
// insertion sort for the short batches the 1/64 ms tick makes common,
// heapsort (O(n log n) worst case, no recursion) for tie-heavy bursts.
//
//tg:hotpath
func sortEvents(s []event) {
	if len(s) <= 24 {
		for i := 1; i < len(s); i++ {
			if !eventBefore(&s[i], &s[i-1]) {
				continue
			}
			ev := s[i]
			j := i
			for ; j > 0 && eventBefore(&ev, &s[j-1]); j-- {
				s[j] = s[j-1]
			}
			s[j] = ev
		}
		return
	}
	n := len(s)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownMax(s, i, n)
	}
	for i := n - 1; i > 0; i-- {
		s[0], s[i] = s[i], s[0]
		siftDownMax(s, 0, i)
	}
}

// siftDownMax restores the max-heap property (by the (at, seq) order)
// for the subtree rooted at i within s[:n].
func siftDownMax(s []event, i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		big := l
		if r := l + 1; r < n && eventBefore(&s[big], &s[r]) {
			big = r
		}
		if !eventBefore(&s[i], &s[big]) {
			return
		}
		s[i], s[big] = s[big], s[i]
		i = big
	}
}
