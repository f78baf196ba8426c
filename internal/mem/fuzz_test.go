package mem

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/metrics"
)

// The reference model below is the sparse, map-based page accounting
// the dense implementation replaced: per-page sharer counts in maps, an
// explicit set of reclaimed base frames, and a recheck of every affected
// page on each sharer change. FuzzPageAccounting runs the same op
// sequence against it and against Host and requires every observable to
// agree after every op. Split pages are summed in ascending order and
// mappings are kept in mapping order, so float results compare exactly.

type refHost struct {
	swapPages             uint64
	used, private, high   uint64
	cowFaults, swapEvents int64
	regions               []*refRegion
	spaces                []*refSpace // live, in creation order
}

type refRegion struct {
	kind      Kind
	pages     int
	sharers   int
	faults    uint64
	dirtied   map[int]int  // page -> sharers that split it
	freedBase map[int]bool // pages whose base frame is reclaimed
}

type refSpace struct {
	refs    []*refMapping
	private map[Kind]int
}

type refMapping struct {
	region *refRegion
	dirty  map[int]bool
}

func (h *refHost) adjust(pages, private int64) {
	was := h.used > h.swapPages
	h.used = uint64(int64(h.used) + pages)
	h.private = uint64(int64(h.private) + private)
	if h.used > h.high {
		h.high = h.used
	}
	if h.used > h.swapPages && !was {
		h.swapEvents++
	}
}

// recheck reconciles page p's base frame with its referent count and
// returns the host page delta.
func (r *refRegion) recheck(p int) int64 {
	base := r.sharers - r.dirtied[p]
	switch {
	case base <= 0 && !r.freedBase[p] && r.sharers > 0:
		r.freedBase[p] = true
		return -1
	case base > 0 && r.freedBase[p]:
		delete(r.freedBase, p)
		return 1
	}
	return 0
}

func (s *refSpace) mapping(r *refRegion) *refMapping {
	for _, m := range s.refs {
		if m.region == r {
			return m
		}
	}
	return nil
}

func (h *refHost) mapRegion(s *refSpace, r *refRegion) {
	s.refs = append(s.refs, &refMapping{region: r, dirty: map[int]bool{}})
	r.sharers++
	var delta int64
	if r.sharers == 1 {
		delta += int64(r.pages)
	}
	for p := range r.freedBase {
		delta += r.recheck(p)
	}
	h.adjust(delta, 0)
}

func (h *refHost) dirtyPage(s *refSpace, r *refRegion, p int) bool {
	m := s.mapping(r)
	if m.dirty[p] {
		return false
	}
	m.dirty[p] = true
	r.dirtied[p]++
	r.faults++
	s.private[r.kind]++
	h.cowFaults++
	h.adjust(1+r.recheck(p), 1)
	return true
}

func (h *refHost) dirtyFrom(s *refSpace, r *refRegion, from, to, budget int) (faults, next int) {
	p := from
	for ; p < to && faults < budget; p++ {
		if h.dirtyPage(s, r, p) {
			faults++
		}
	}
	return faults, p
}

func (h *refHost) free(s *refSpace) {
	for _, m := range s.refs {
		r := m.region
		delta := -int64(len(m.dirty))
		for p := range m.dirty {
			if r.dirtied[p]--; r.dirtied[p] == 0 {
				delete(r.dirtied, p)
			}
		}
		r.sharers--
		if r.sharers == 0 {
			delta -= int64(r.pages - len(r.freedBase))
			r.freedBase = map[int]bool{}
		} else {
			for p := range r.dirtied {
				delta += r.recheck(p)
			}
			for p := range r.freedBase {
				delta += r.recheck(p)
			}
		}
		h.adjust(delta, -int64(len(m.dirty)))
	}
	var copies, private int64
	for _, m := range s.refs {
		copies += int64(len(m.dirty))
	}
	for _, n := range s.private {
		private += int64(n)
	}
	h.adjust(-(private - copies), -(private - copies))
	for i, o := range h.spaces {
		if o == s {
			h.spaces = append(h.spaces[:i], h.spaces[i+1:]...)
			break
		}
	}
}

func sortedPages[V any](m map[int]V) []int {
	ps := make([]int, 0, len(m))
	for p := range m {
		ps = append(ps, p)
	}
	sort.Ints(ps)
	return ps
}

// addShared adds mapping m's share of its region's base frames to acc.
func (m *refMapping) addShared(acc float64) float64 {
	r := m.region
	if r.sharers > 0 {
		acc += float64(r.pages-len(r.dirtied)) * PageSize / float64(r.sharers)
	}
	for _, p := range sortedPages(r.dirtied) {
		if m.dirty[p] {
			continue
		}
		if base := r.sharers - r.dirtied[p]; base > 0 {
			acc += PageSize / float64(base)
		}
	}
	return acc
}

func (s *refSpace) pss() float64 {
	var pss float64
	for _, n := range s.private {
		pss += float64(n) * PageSize
	}
	for _, m := range s.refs {
		pss = m.addShared(pss)
	}
	return pss
}

func (s *refSpace) breakdown() map[Kind]float64 {
	out := map[Kind]float64{}
	for k, n := range s.private {
		out[k] += float64(n) * PageSize
	}
	for _, m := range s.refs {
		if m.region.sharers > 0 {
			out[m.region.kind] = m.addShared(out[m.region.kind])
		}
	}
	return out
}

func (s *refSpace) rss() uint64 {
	var pages uint64
	for _, m := range s.refs {
		pages += uint64(m.region.pages - len(m.dirty))
	}
	for _, n := range s.private {
		pages += uint64(n)
	}
	return pages * PageSize
}

func (s *refSpace) uss() uint64 {
	var pages uint64
	for _, n := range s.private {
		pages += uint64(n)
	}
	for _, m := range s.refs {
		r := m.region
		if r.sharers == 1 {
			pages += uint64(r.pages - len(m.dirty))
			continue
		}
		for p, n := range r.dirtied {
			if !m.dirty[p] && r.sharers-n == 1 {
				pages++
			}
		}
	}
	return pages * PageSize
}

func (r *refRegion) lineage() (shared, partial, reclaimed, copies int) {
	if r.sharers == 0 {
		return
	}
	for p, n := range r.dirtied {
		copies += n
		if r.freedBase[p] {
			reclaimed++
		} else {
			partial++
		}
	}
	return r.pages - partial - reclaimed, partial, reclaimed, copies
}

// Regions and private allocations draw from disjoint kinds, so a
// FreePrivate never releases pages that are really CoW copies.
var (
	fuzzRegionKinds = []Kind{KindKernel, KindRuntime, KindLibrary}
	fuzzKinds       = []Kind{KindHeap, KindAnon, KindJITCode}
)

// FuzzPageAccounting decodes data into an op sequence over 1-3 small
// regions (NewSpace, MapRegion, DirtyPage, DirtyPages, DirtyFrom,
// AllocPrivate, FreePrivate, Free) and checks Host against the
// map-based reference model after every op.
func FuzzPageAccounting(f *testing.F) {
	f.Add([]byte{1, 40, 0, 0, 1, 0, 0, 0, 1, 0, 3, 0, 0, 30, 3, 1, 0, 20, 7, 0})
	f.Add([]byte{2, 130, 70, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 4, 0, 0, 0, 100, 200, 4, 1, 0, 64, 90, 2, 7, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		// Threshold 96 pages: a few mappings and copies cross it.
		const capacity = 192 * PageSize
		reg := metrics.NewRegistry()
		h := NewHost(capacity, 0.5)
		h.Instrument(reg)
		ref := &refHost{swapPages: 96}
		var regions []*Region
		for i, n := 0, 1+next()%3; i < n; i++ {
			pages := 1 + next()%130
			kind := fuzzRegionKinds[i]
			regions = append(regions, h.NewRegion("r", kind, pages))
			ref.regions = append(ref.regions, &refRegion{kind: kind, pages: pages,
				dirtied: map[int]int{}, freedBase: map[int]bool{}})
		}
		var spaces []*Space
		for step := 0; len(data) > 0 && step < 64; step++ {
			op := next() % 8
			if op == 0 || len(spaces) == 0 {
				if len(spaces) < 5 {
					spaces = append(spaces, h.NewSpace(fmt.Sprintf("s%d", step)))
					ref.spaces = append(ref.spaces, &refSpace{private: map[Kind]int{}})
				}
				check(t, h, reg, ref, regions, spaces)
				continue
			}
			si := next() % len(spaces)
			s, rs := spaces[si], ref.spaces[si]
			ri := next() % len(regions)
			r, rr := regions[ri], ref.regions[ri]
			mapped := rs.mapping(rr) != nil
			switch op {
			case 1:
				if !mapped {
					s.MapRegion(r)
					ref.mapRegion(rs, rr)
				}
			case 2:
				if p := next() % rr.pages; mapped {
					if got, want := s.DirtyPage(r, p), ref.dirtyPage(rs, rr, p); got != want {
						t.Fatalf("DirtyPage(%d) = %v, want %v", p, got, want)
					}
				}
			case 3:
				if n := next(); mapped {
					want, _ := ref.dirtyFrom(rs, rr, 0, min(n, rr.pages), n)
					if got := s.DirtyPages(r, n); got != want {
						t.Fatalf("DirtyPages(%d) = %d, want %d", n, got, want)
					}
				}
			case 4:
				from := next() % (rr.pages + 1)
				to := from + next()%(rr.pages-from+1)
				budget := next() % 64
				if mapped {
					gf, gn := s.DirtyFrom(r, from, to, budget)
					wf, wn := ref.dirtyFrom(rs, rr, from, to, budget)
					if gf != wf || gn != wn {
						t.Fatalf("DirtyFrom(%d,%d,%d) = %d,%d, want %d,%d", from, to, budget, gf, gn, wf, wn)
					}
				}
			case 5:
				kind, n := fuzzKinds[next()%len(fuzzKinds)], next()%40
				s.AllocPrivate(kind, n)
				rs.private[kind] += n
				ref.adjust(int64(n), int64(n))
			case 6:
				kind := fuzzKinds[next()%len(fuzzKinds)]
				n := next() % (rs.private[kind] + 1)
				s.FreePrivate(kind, n)
				rs.private[kind] -= n
				ref.adjust(-int64(n), -int64(n))
			case 7:
				s.Free()
				ref.free(rs)
				spaces = append(spaces[:si], spaces[si+1:]...)
			}
			check(t, h, reg, ref, regions, spaces)
		}
		for len(spaces) > 0 {
			spaces[0].Free()
			ref.free(ref.spaces[0])
			spaces = spaces[1:]
			check(t, h, reg, ref, regions, spaces)
		}
		if h.Used() != 0 {
			t.Fatalf("used after teardown = %d", h.Used())
		}
	})
}

// check compares every observable of h with the reference model.
func check(t *testing.T, h *Host, reg *metrics.Registry, ref *refHost, regions []*Region, spaces []*Space) {
	t.Helper()
	if got, want := h.Used(), ref.used*PageSize; got != want {
		t.Fatalf("Used = %d, want %d", got, want)
	}
	if got, want := h.HighWater(), ref.high*PageSize; got != want {
		t.Fatalf("HighWater = %d, want %d", got, want)
	}
	if got := reg.Gauge("mem_private_frames").Value(); got != int64(ref.private) {
		t.Fatalf("mem_private_frames = %d, want %d", got, ref.private)
	}
	if got := reg.Counter("mem_cow_faults_total").Value(); got != ref.cowFaults {
		t.Fatalf("mem_cow_faults_total = %d, want %d", got, ref.cowFaults)
	}
	if got := reg.Counter("mem_swap_events_total").Value(); got != ref.swapEvents {
		t.Fatalf("mem_swap_events_total = %d, want %d", got, ref.swapEvents)
	}
	for i, s := range spaces {
		rs := ref.spaces[i]
		if got, want := s.RSS(), rs.rss(); got != want {
			t.Fatalf("%s RSS = %d, want %d", s.Name(), got, want)
		}
		if got, want := s.PSS(), rs.pss(); got != want {
			t.Fatalf("%s PSS = %v, want %v", s.Name(), got, want)
		}
		if got, want := s.USS(), rs.uss(); got != want {
			t.Fatalf("%s USS = %d, want %d", s.Name(), got, want)
		}
		if got, want := s.BreakdownByKind(), rs.breakdown(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s breakdown = %v, want %v", s.Name(), got, want)
		}
		for j, r := range regions {
			got := s.DirtiedPagesIn(r)
			m := rs.mapping(ref.regions[j])
			if m == nil {
				if got != nil {
					t.Fatalf("%s DirtiedPagesIn unmapped %s = %v", s.Name(), r.Name(), got)
				}
				continue
			}
			if want := sortedPages(m.dirty); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s DirtiedPagesIn %s = %v, want %v", s.Name(), r.Name(), got, want)
			}
		}
	}
	for j, r := range regions {
		rr := ref.regions[j]
		l := r.Lineage()
		shared, partial, reclaimed, copies := rr.lineage()
		if l.Sharers != rr.sharers || l.Faults != rr.faults || l.SharedPages != shared ||
			l.PartialPages != partial || l.ReclaimedPages != reclaimed || l.SplitCopies != copies ||
			l.BaseResidentPages != shared+partial {
			t.Fatalf("%s lineage = %+v, want sharers %d faults %d shared %d partial %d reclaimed %d copies %d",
				r.Name(), l, rr.sharers, rr.faults, shared, partial, reclaimed, copies)
		}
	}
	if rep := h.Report(); !rep.PSSPageExact {
		t.Fatalf("PSS sum %v not page-exact against %d used", rep.PSSSumBytes, rep.UsedBytes)
	}
}
