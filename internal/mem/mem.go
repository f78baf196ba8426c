// Package mem models guest-physical memory for the Fireworks simulation:
// page-granular sharing of snapshot images across microVMs, copy-on-write
// splitting, and the PSS (proportional set size) accounting that the
// paper's memory experiments (Figures 10 and 12) are built on.
//
// # Model
//
// Memory is grouped into Regions: named sets of pages whose frames are
// shared by every address space that maps the region (exactly how a
// MAP_PRIVATE snapshot file mapping behaves in Firecracker). When a guest
// writes to a shared page, the page is CoW-split: the writing address
// space gets a private copy, and the base frame loses one referent.
//
// Page state is dense. A region keeps one split count per page (how
// many current sharers split it) plus a histogram of those counts; each
// mapping keeps a bitset of the pages its space split. A base frame is
// reclaimed exactly when every sharer has split it, so a mapped region
// holds pages − hist[sharers] resident base frames and every sharer
// change moves host usage by the difference of that formula, without
// walking other pages. Both arrays cover only the prefix up to the
// highest page split, and are dropped when the region goes dormant.
// CoW faults are taken a range at a time (Space.DirtyFrom): one lock
// acquisition, one counter add, and one gauge publish per range.
//
// A Host tracks total physical frame usage against a capacity and a
// swappiness threshold, reproducing the "launch microVMs until swapping
// starts" methodology of §5.4. It also tracks every live Space and
// Region, from which Report derives the smem-style fleet table and the
// per-region page lineage (see report.go and docs/memory.md).
//
// All Space and Region state is guarded by the owning Host's mutex, so
// a fleet report can walk every address space concurrently with the
// spaces' owners mutating them.
package mem

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/metrics"
)

// PageSize is the guest page size in bytes (4 KiB, matching x86-64).
const PageSize = 4096

// Kind labels what a region or private allocation holds. The factor
// analysis in Figure 12 reports savings per kind.
type Kind string

const (
	KindKernel  Kind = "kernel"  // guest kernel + boot pages
	KindRuntime Kind = "runtime" // language runtime text/data
	KindLibrary Kind = "library" // loaded packages/modules
	KindJITCode Kind = "jitcode" // JIT-compiled machine code
	KindHeap    Kind = "heap"    // application heap
	KindAnon    Kind = "anon"    // miscellaneous anonymous memory
)

// Host models the physical memory of one server.
type Host struct {
	mu           sync.Mutex
	capacity     uint64 // bytes of physical memory
	swapBytes    uint64 // usage (bytes) beyond which the host swaps
	swapPages    uint64 // swapBytes in whole pages
	usedPages    uint64
	privatePages uint64 // pages not backed by a shared region frame
	maxUsedPages uint64 // high-water mark of usedPages
	regions      map[string]*Region
	nextRegion   int
	spaces       map[int]*Space // live address spaces by creation seq
	nextSpace    int

	// Observability (nil-safe; see Instrument).
	cowFaults  *metrics.Counter
	cowByKind  map[Kind]*metrics.Counter
	swapEvents *metrics.Counter
	usedGauge  *metrics.Gauge
	privGauge  *metrics.Gauge
	sharedG    *metrics.Gauge
	swapGauge  *metrics.Gauge
	privFrames *metrics.Gauge
	sharFrames *metrics.Gauge
	swapFrames *metrics.Gauge
	highWaterG *metrics.Gauge
	pssHist    *metrics.Histogram
}

// NewHost returns a host with the given physical capacity in bytes and a
// vm.swappiness-style threshold: swapping begins once usage exceeds
// swappiness (as a fraction, e.g. 0.6) of capacity.
func NewHost(capacity uint64, swappiness float64) *Host {
	if swappiness <= 0 || swappiness > 1 {
		panic(fmt.Sprintf("mem: swappiness %v out of (0,1]", swappiness))
	}
	swapBytes := uint64(float64(capacity) * swappiness)
	return &Host{
		capacity:  capacity,
		swapBytes: swapBytes,
		swapPages: swapBytes / PageSize,
		regions:   make(map[string]*Region),
		spaces:    make(map[int]*Space),
	}
}

// pssBuckets are the mem_pss_bytes histogram bounds: 1 MiB … 1 GiB,
// log2-spaced — the range the paper's per-microVM PSS numbers live in.
func pssBuckets() []float64 {
	var bounds []float64
	for b := uint64(1 << 20); b <= 1<<30; b <<= 1 {
		bounds = append(bounds, float64(b))
	}
	return bounds
}

// Instrument attaches the host to a metrics registry. CoW faults are
// counted in total and by page kind; physical usage is exported as
// byte gauges split into privately-owned pages and shared region frames
// (the quantity the paper's PSS/USS experiments, Figures 10 and 12, are
// about) plus the matching frame-count gauges, the swapped-frame
// estimate, and the usage high-water mark. mem_pss_bytes observes each
// space's final PSS at teardown (smem's per-process column, sampled at
// the end of life).
func (h *Host) Instrument(reg *metrics.Registry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cowFaults = reg.Counter("mem_cow_faults_total")
	h.cowByKind = make(map[Kind]*metrics.Counter)
	for _, k := range Kinds() {
		h.cowByKind[k] = reg.Counter(metrics.Name("mem_cow_faults_by_kind", "kind", string(k)))
	}
	h.swapEvents = reg.Counter("mem_swap_events_total")
	h.usedGauge = reg.Gauge("mem_used_bytes")
	h.privGauge = reg.Gauge("mem_private_bytes")
	h.sharedG = reg.Gauge("mem_shared_bytes")
	h.swapGauge = reg.Gauge("mem_swapping")
	h.privFrames = reg.Gauge("mem_private_frames")
	h.sharFrames = reg.Gauge("mem_shared_frames")
	h.swapFrames = reg.Gauge("mem_swapped_frames")
	h.highWaterG = reg.Gauge("mem_high_water_bytes")
	h.pssHist = reg.HistogramWith("mem_pss_bytes", "bytes", pssBuckets())
}

// publishLocked refreshes the usage gauges; caller holds h.mu.
func (h *Host) publishLocked() {
	h.usedGauge.Set(int64(h.usedPages) * PageSize)
	h.privGauge.Set(int64(h.privatePages) * PageSize)
	h.sharedG.Set(int64(h.usedPages-h.privatePages) * PageSize)
	h.privFrames.Set(int64(h.privatePages))
	h.sharFrames.Set(int64(h.usedPages - h.privatePages))
	h.swapFrames.Set(int64(h.swappedPagesLocked()))
	h.highWaterG.Set(int64(h.maxUsedPages) * PageSize)
}

// swappedPagesLocked estimates the frames the kernel would have pushed
// to swap: usage beyond the swappiness threshold. Caller holds h.mu.
func (h *Host) swappedPagesLocked() uint64 {
	if h.usedPages <= h.swapPages {
		return 0
	}
	return h.usedPages - h.swapPages
}

// Capacity returns the host's physical memory in bytes.
func (h *Host) Capacity() uint64 { return h.capacity }

// SwapThreshold returns the usage level (bytes) at which swapping starts.
func (h *Host) SwapThreshold() uint64 { return h.swapBytes }

// Used returns the bytes of physical memory currently in use across all
// regions and private allocations.
func (h *Host) Used() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.usedPages * PageSize
}

// HighWater returns the highest usage (bytes) the host has ever reached
// — the swap-pressure watermark the memory timeline reports.
func (h *Host) HighWater() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.maxUsedPages * PageSize
}

// Swapping reports whether current usage has crossed the swap threshold.
func (h *Host) Swapping() bool { return h.Used() > h.SwapThreshold() }

// adjustLocked moves the host's page accounting: pages is the total
// physical frame delta, private the subset that is privately owned
// (anonymous allocations and CoW copies). Shared frame usage is derived
// as total - private. Crossing the swap threshold upward counts one
// swap event. Caller holds h.mu.
func (h *Host) adjustLocked(pages, private int64) {
	next := int64(h.usedPages) + pages
	if next < 0 {
		panic("mem: host page accounting went negative")
	}
	nextPriv := int64(h.privatePages) + private
	if nextPriv < 0 {
		panic("mem: host private-page accounting went negative")
	}
	wasSwapping := h.usedPages > h.swapPages
	h.usedPages = uint64(next)
	h.privatePages = uint64(nextPriv)
	if h.usedPages > h.maxUsedPages {
		h.maxUsedPages = h.usedPages
	}
	nowSwapping := h.usedPages > h.swapPages
	if nowSwapping && !wasSwapping {
		h.swapEvents.Inc()
	}
	if nowSwapping != wasSwapping {
		v := int64(0)
		if nowSwapping {
			v = 1
		}
		h.swapGauge.Set(v)
	}
	h.publishLocked()
}

// NewRegion creates a shareable region of pages on this host. The
// region's frames occupy physical memory only while at least one address
// space maps it.
func (h *Host) NewRegion(name string, kind Kind, pages int) *Region {
	if pages < 0 {
		panic("mem: negative region size")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextRegion++
	r := &Region{
		host:  h,
		seq:   h.nextRegion,
		name:  fmt.Sprintf("%s#%d", name, h.nextRegion),
		kind:  kind,
		pages: pages,
	}
	h.regions[r.name] = r
	return r
}

// Region is a named group of pages shared CoW among address spaces.
type Region struct {
	host    *Host
	seq     int // creation order, for deterministic reports
	name    string
	kind    Kind
	pages   int
	sharers int
	faults  uint64 // lifetime CoW faults attributed to this region
	// split[p] is the number of current sharers that CoW-split page p
	// and so no longer reference its base frame. It covers pages up to
	// the highest one split (zero beyond), is allocated on the first
	// split, and is dropped when the region goes dormant.
	split []uint16
	// hist[k] (k >= 1) counts the pages split by exactly k sharers;
	// touched counts the pages split by anyone and copies the live CoW
	// copies (the sum of split).
	hist    []int
	touched int
	copies  int
}

// residentLocked returns the region's resident base frames: none while
// dormant, otherwise every page except those every sharer split (their
// base frames are reclaimed). Caller holds the host lock.
func (r *Region) residentLocked() int {
	if r.sharers == 0 {
		return 0
	}
	return r.pages - r.hist[r.sharers]
}

// Name returns the unique region name, Kind its content label, and Pages
// its size in pages.
func (r *Region) Name() string { return r.name }
func (r *Region) Kind() Kind   { return r.kind }
func (r *Region) Pages() int   { return r.pages }

// Sharers returns the number of address spaces currently mapping the
// region.
func (r *Region) Sharers() int {
	r.host.mu.Lock()
	defer r.host.mu.Unlock()
	return r.sharers
}

// Faults returns the lifetime CoW faults taken against this region.
func (r *Region) Faults() uint64 {
	r.host.mu.Lock()
	defer r.host.mu.Unlock()
	return r.faults
}

// Space is one address space (one microVM's guest-physical memory, or one
// container's memory image).
type Space struct {
	host    *Host
	seq     int // creation order, for deterministic reports
	name    string
	refs    []*regionRef // in mapping order
	private map[Kind]int // private page counts by kind (anon + CoW copies)
	freed   bool
}

// regionRef is one mapping of a region into a space.
type regionRef struct {
	region *Region
	// dirty is the bitset of pages this space CoW-split, covering pages
	// up to the highest one it split; nDirty is its popcount.
	dirty  []uint64
	nDirty int
}

// NewSpace creates an empty address space on the host and registers it
// for fleet reports; Free unregisters it.
func (h *Host) NewSpace(name string) *Space {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextSpace++
	s := &Space{
		host:    h,
		seq:     h.nextSpace,
		name:    name,
		private: make(map[Kind]int),
	}
	h.spaces[s.seq] = s
	return s
}

// Spaces returns the live address spaces in creation order.
func (h *Host) Spaces() []*Space {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Space, 0, len(h.spaces))
	for _, s := range h.spaces {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Name returns the space's name.
func (s *Space) Name() string { return s.name }

// refLocked returns this space's mapping of r, or nil. Caller holds the
// host lock.
func (s *Space) refLocked(r *Region) *regionRef {
	for _, ref := range s.refs {
		if ref.region == r {
			return ref
		}
	}
	return nil
}

// MapRegion maps a shared region into this space. Mapping the same region
// twice is an error in the simulated stack and panics.
func (s *Space) MapRegion(r *Region) {
	h := s.host
	h.mu.Lock()
	defer h.mu.Unlock()
	s.mustLive()
	if s.refLocked(r) != nil {
		panic(fmt.Sprintf("mem: region %s mapped twice into %s", r.name, s.name))
	}
	s.refs = append(s.refs, &regionRef{region: r})
	// Frames materialize on first mapping; a new sharer re-references
	// the base frames reclaimed because every previous sharer split them.
	before := r.residentLocked()
	r.sharers++
	for len(r.hist) <= r.sharers {
		r.hist = append(r.hist, 0)
	}
	if delta := r.residentLocked() - before; delta != 0 {
		h.adjustLocked(int64(delta), 0)
	}
}

// DirtyPage CoW-splits one page of a mapped region: this space gets a
// private copy. Dirtying an already-split page is a no-op (the private
// copy is simply written again). It reports whether a CoW fault occurred.
func (s *Space) DirtyPage(r *Region, page int) bool {
	h := s.host
	h.mu.Lock()
	defer h.mu.Unlock()
	ref := s.mappedLocked(r)
	if page < 0 || page >= r.pages {
		panic(fmt.Sprintf("mem: page %d out of range for region %s (%d pages)", page, r.name, r.pages))
	}
	faults, _ := s.dirtyLocked(ref, page, page+1, 1)
	return faults == 1
}

// DirtyPages CoW-splits the first n pages of the region (a convenient
// stand-in for "the working set touched during execution") and returns
// the number of actual faults.
func (s *Space) DirtyPages(r *Region, n int) int {
	if n > r.pages {
		n = r.pages
	}
	if n <= 0 {
		return 0
	}
	faults, _ := s.DirtyFrom(r, 0, n, n)
	return faults
}

// DirtyFrom CoW-splits pages [from, to) of a mapped region in ascending
// order, stopping once budget faults have been taken; pages this space
// already split cost nothing. It returns the faults taken and next, the
// page after the last one visited (to when the budget was not reached),
// so a caller can resume where it stopped. The whole range is one host
// operation: one lock acquisition, one fault-counter add, and one gauge
// publish.
func (s *Space) DirtyFrom(r *Region, from, to, budget int) (faults, next int) {
	h := s.host
	h.mu.Lock()
	defer h.mu.Unlock()
	ref := s.mappedLocked(r)
	if from < 0 || from > to || to > r.pages {
		panic(fmt.Sprintf("mem: pages [%d,%d) out of range for region %s (%d pages)", from, to, r.name, r.pages))
	}
	return s.dirtyLocked(ref, from, to, budget)
}

// mappedLocked returns this live space's mapping of r, panicking if the
// region is not mapped. Caller holds the host lock.
func (s *Space) mappedLocked(r *Region) *regionRef {
	s.mustLive()
	ref := s.refLocked(r)
	if ref == nil {
		panic(fmt.Sprintf("mem: dirty of unmapped region %s in %s", r.name, s.name))
	}
	return ref
}

// dirtyLocked is the CoW fault path behind DirtyPage, DirtyPages and
// DirtyFrom; the range is already validated. Each fault moves its
// page's split count from k to k+1 and adds one private copy; the page's
// base frame is reclaimed when k+1 reaches the sharer count. Caller
// holds the host lock.
func (s *Space) dirtyLocked(ref *regionRef, from, to, budget int) (faults, next int) {
	r := ref.region
	reclaimed := 0
	p := from
	for ; p < to && faults < budget; p++ {
		w, bit := p>>6, uint64(1)<<(p&63)
		if w >= len(ref.dirty) {
			ref.dirty = append(ref.dirty, make([]uint64, w+1-len(ref.dirty))...)
		} else if ref.dirty[w]&bit != 0 {
			continue // already split: the private copy is written again
		}
		ref.dirty[w] |= bit
		if p >= len(r.split) {
			r.split = append(r.split, make([]uint16, p+1-len(r.split))...)
		}
		k := r.split[p]
		if k == math.MaxUint16 {
			panic(fmt.Sprintf("mem: page %d of region %s split by more than %d spaces", p, r.name, math.MaxUint16))
		}
		r.split[p] = k + 1
		if k == 0 {
			r.touched++
		} else {
			r.hist[k]--
		}
		r.hist[k+1]++
		if int(k)+1 == r.sharers {
			reclaimed++
		}
		faults++
	}
	if faults == 0 {
		return 0, p
	}
	ref.nDirty += faults
	r.copies += faults
	r.faults += uint64(faults)
	s.private[r.kind] += faults
	h := s.host
	h.cowFaults.Add(int64(faults))
	h.cowByKind[r.kind].Add(int64(faults))
	// The CoW copies are new private pages; the reclaimed base frames
	// leave the shared side.
	h.adjustLocked(int64(faults-reclaimed), int64(faults))
	return faults, p
}

// DirtiedPagesIn returns the pages of r this space has CoW-split, in
// ascending page order — the per-space fault telemetry the snapshot
// layer turns into REAP-style working-set records. Returns nil if the
// region is not mapped here.
func (s *Space) DirtiedPagesIn(r *Region) []int {
	h := s.host
	h.mu.Lock()
	defer h.mu.Unlock()
	s.mustLive()
	ref := s.refLocked(r)
	if ref == nil {
		return nil
	}
	pages := make([]int, 0, ref.nDirty)
	for w, word := range ref.dirty {
		for word != 0 {
			pages = append(pages, w<<6+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return pages
}

// AllocPrivate allocates n private anonymous pages of the given kind.
func (s *Space) AllocPrivate(kind Kind, pages int) {
	if pages < 0 {
		panic("mem: negative private allocation")
	}
	h := s.host
	h.mu.Lock()
	defer h.mu.Unlock()
	s.mustLive()
	s.private[kind] += pages
	h.adjustLocked(int64(pages), int64(pages))
}

// FreePrivate releases n private pages of the given kind.
func (s *Space) FreePrivate(kind Kind, pages int) {
	if pages < 0 {
		panic("mem: negative private free")
	}
	h := s.host
	h.mu.Lock()
	defer h.mu.Unlock()
	s.mustLive()
	if s.private[kind] < pages {
		panic(fmt.Sprintf("mem: freeing %d %s pages but only %d allocated", pages, kind, s.private[kind]))
	}
	s.private[kind] -= pages
	h.adjustLocked(-int64(pages), -int64(pages))
}

// Free releases everything the space holds: region mappings (dropping
// its pages' split counts, reclaiming base frames that lost their last
// referent) and private pages, CoW copies included. The space's final
// PSS is observed into mem_pss_bytes (smem's per-process sample, taken
// at end of life) and the space is unregistered from fleet reports; it
// is unusable afterwards.
func (s *Space) Free() {
	h := s.host
	h.mu.Lock()
	defer h.mu.Unlock()
	s.mustLive()
	if h.pssHist != nil {
		h.pssHist.Observe(s.pssLocked())
	}
	var shared int64
	for _, ref := range s.refs {
		r := ref.region
		before := r.residentLocked()
		for w, word := range ref.dirty {
			for word != 0 {
				p := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				k := r.split[p]
				r.split[p] = k - 1
				r.hist[k]--
				if k == 1 {
					r.touched--
				} else {
					r.hist[k-1]++
				}
			}
		}
		r.copies -= ref.nDirty
		r.sharers--
		if r.sharers == 0 {
			// Dormant: every base frame goes and the page state with it.
			r.split, r.hist = nil, nil
		}
		// Our departure may orphan base frames of pages every remaining
		// sharer has split; it never re-materializes one.
		shared += int64(r.residentLocked() - before)
	}
	var private int64
	for _, n := range s.private {
		private += int64(n)
	}
	// Every delta here is a release, so one adjustment crosses the swap
	// threshold (downward) exactly as a page-by-page teardown would.
	h.adjustLocked(shared-private, -private)
	delete(h.spaces, s.seq)
	s.refs = nil
	s.private = nil
	s.freed = true
}

func (s *Space) mustLive() {
	if s.freed {
		panic(fmt.Sprintf("mem: use of freed space %s", s.name))
	}
}

// PrivatePages returns the number of private pages of one kind.
func (s *Space) PrivatePages(kind Kind) int {
	s.host.mu.Lock()
	defer s.host.mu.Unlock()
	return s.private[kind]
}

// RSS returns the resident set size in bytes: all mapped shared pages
// plus all private pages (how `top` would see the microVM process).
func (s *Space) RSS() uint64 {
	h := s.host
	h.mu.Lock()
	defer h.mu.Unlock()
	s.mustLive()
	return s.rssLocked()
}

func (s *Space) rssLocked() uint64 {
	var pages uint64
	for _, ref := range s.refs {
		// Shared pages still referenced (not CoW-split by this space).
		pages += uint64(ref.region.pages - ref.nDirty)
	}
	for _, n := range s.private {
		pages += uint64(n)
	}
	return pages * PageSize
}

// PSS returns the proportional set size in bytes, exactly as smem
// computes it: each private page counts fully; each shared page counts
// 1/N where N is the number of spaces still referencing that base frame.
func (s *Space) PSS() float64 {
	h := s.host
	h.mu.Lock()
	defer h.mu.Unlock()
	s.mustLive()
	return s.pssLocked()
}

func (s *Space) pssLocked() float64 {
	var pss float64
	for _, n := range s.private {
		pss += float64(n) * PageSize
	}
	for _, ref := range s.refs {
		pss = ref.addSharedPSSLocked(pss)
	}
	return pss
}

// addSharedPSSLocked adds this mapping's share of the region's base
// frames to acc. Pages nobody split are shared by all current sharers; a
// page someone split is shared by the sharers that did not, of which
// this space is one only if it did not split the page itself (its own
// copy counts as private). Split pages are added in ascending page
// order. Caller holds the host lock.
func (ref *regionRef) addSharedPSSLocked(acc float64) float64 {
	r := ref.region
	if r.sharers == 0 {
		return acc
	}
	acc += float64(r.pages-r.touched) * PageSize / float64(r.sharers)
	ref.foreignSplitsLocked(func(k int) {
		if base := r.sharers - k; base > 0 {
			acc += PageSize / float64(base)
		}
	})
	return acc
}

// foreignSplitsLocked calls fn with the split count of every page some
// sharer split but this space did not, in ascending page order. Runs of
// 64 pages this space split entirely are skipped a word at a time.
// Caller holds the host lock.
func (ref *regionRef) foreignSplitsLocked(fn func(k int)) {
	split := ref.region.split
	for lo := 0; lo < len(split); lo += 64 {
		var mine uint64
		if w := lo >> 6; w < len(ref.dirty) {
			mine = ref.dirty[w]
		}
		if mine == ^uint64(0) {
			continue
		}
		for i, k := range split[lo:min(lo+64, len(split))] {
			if k != 0 && mine&(1<<i) == 0 {
				fn(int(k))
			}
		}
	}
}

// USS returns the unique set size in bytes: private pages plus shared
// pages mapped by no other space.
func (s *Space) USS() uint64 {
	h := s.host
	h.mu.Lock()
	defer h.mu.Unlock()
	s.mustLive()
	return s.ussLocked()
}

func (s *Space) ussLocked() uint64 {
	var pages uint64
	for _, n := range s.private {
		pages += uint64(n)
	}
	for _, ref := range s.refs {
		r := ref.region
		if r.sharers == 1 {
			pages += uint64(r.pages - ref.nDirty)
			continue
		}
		// Base frames every other sharer split.
		ref.foreignSplitsLocked(func(k int) {
			if k == r.sharers-1 {
				pages++
			}
		})
	}
	return pages * PageSize
}

// BreakdownByKind returns this space's PSS decomposed by content kind,
// used by the Figure 12 factor analysis.
func (s *Space) BreakdownByKind() map[Kind]float64 {
	h := s.host
	h.mu.Lock()
	defer h.mu.Unlock()
	s.mustLive()
	return s.breakdownLocked()
}

func (s *Space) breakdownLocked() map[Kind]float64 {
	out := make(map[Kind]float64)
	for kind, n := range s.private {
		out[kind] += float64(n) * PageSize
	}
	for _, ref := range s.refs {
		if ref.region.sharers > 0 {
			out[ref.region.kind] = ref.addSharedPSSLocked(out[ref.region.kind])
		}
	}
	return out
}

// Kinds returns the deterministic ordering of kinds used in reports.
func Kinds() []Kind {
	ks := []Kind{KindKernel, KindRuntime, KindLibrary, KindJITCode, KindHeap, KindAnon}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// PagesFor returns the number of pages needed to hold n bytes.
func PagesFor(bytes uint64) int {
	return int((bytes + PageSize - 1) / PageSize)
}
