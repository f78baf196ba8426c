package mem

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// reportFixture builds a host with one shared snapshot region mapped by
// three spaces, CoW splits in various states, and a private allocation.
func reportFixture() (*Host, *Region, []*Space) {
	h := NewHost(1<<30, 0.6)
	r := h.NewRegion("snap", KindRuntime, 100)
	var spaces []*Space
	for i := 0; i < 3; i++ {
		s := h.NewSpace([]string{"a", "b", "c"}[i])
		s.MapRegion(r)
		spaces = append(spaces, s)
	}
	spaces[0].DirtyPages(r, 10) // pages 0-9 partial (a split)
	spaces[1].DirtyPages(r, 5)  // pages 0-4 split by a and b
	spaces[2].DirtyPages(r, 2)  // pages 0-1 split by everyone → reclaimed
	spaces[0].AllocPrivate(KindHeap, 7)
	return h, r, spaces
}

func TestHostReportPSSConservation(t *testing.T) {
	h, _, _ := reportFixture()
	rep := h.Report()
	if !rep.PSSPageExact {
		t.Fatalf("PSS sum %v not page-exact vs used %d", rep.PSSSumBytes, rep.UsedBytes)
	}
	if got := uint64(math.Round(rep.PSSSumBytes)); got != rep.UsedBytes {
		t.Fatalf("PSS sum %d != used %d", got, rep.UsedBytes)
	}
	if rep.RSSSumBytes <= rep.UsedBytes {
		t.Fatalf("sharing should make RSS sum (%d) exceed used (%d)", rep.RSSSumBytes, rep.UsedBytes)
	}
	if rep.SharingEfficiency <= 1 {
		t.Fatalf("sharing efficiency = %v, want > 1", rep.SharingEfficiency)
	}
	if len(rep.Spaces) != 3 {
		t.Fatalf("spaces = %d, want 3", len(rep.Spaces))
	}
	// Creation order is deterministic.
	if rep.Spaces[0].Name != "a" || rep.Spaces[2].Name != "c" {
		t.Fatalf("space order = %v", []string{rep.Spaces[0].Name, rep.Spaces[1].Name, rep.Spaces[2].Name})
	}
}

func TestRegionLineage(t *testing.T) {
	h, r, _ := reportFixture()
	l := r.Lineage()
	// Pages 0-1: all three split → reclaimed. Pages 2-4: a+b split →
	// partial. Pages 5-9: only a split → partial. Pages 10-99: clean.
	if l.ReclaimedPages != 2 || l.PartialPages != 8 || l.SharedPages != 90 {
		t.Fatalf("lineage = %+v", l)
	}
	if l.SplitCopies != 10+5+2 {
		t.Fatalf("split copies = %d, want 17", l.SplitCopies)
	}
	if l.Faults != 17 {
		t.Fatalf("faults = %d, want 17", l.Faults)
	}
	if l.BaseResidentPages != 98 {
		t.Fatalf("base resident = %d, want 98", l.BaseResidentPages)
	}
	if math.Abs(l.SharedFraction-0.98) > 1e-9 {
		t.Fatalf("shared fraction = %v", l.SharedFraction)
	}
	if l.Sharers != 3 {
		t.Fatalf("sharers = %d", l.Sharers)
	}
	rep := h.Report()
	if len(rep.Regions) != 1 || rep.Regions[0] != l {
		t.Fatalf("report lineage mismatch: %+v vs %+v", rep.Regions, l)
	}
}

func TestReportUnregistersFreedSpaces(t *testing.T) {
	h, _, spaces := reportFixture()
	spaces[1].Free()
	rep := h.Report()
	if len(rep.Spaces) != 2 {
		t.Fatalf("spaces after free = %d, want 2", len(rep.Spaces))
	}
	if !rep.PSSPageExact {
		t.Fatalf("PSS sum %v not page-exact after free (used %d)", rep.PSSSumBytes, rep.UsedBytes)
	}
	for _, s := range rep.Spaces {
		if s.Name == "b" {
			t.Fatal("freed space still reported")
		}
	}
	// Dormant regions with no faults vanish from the report; this one
	// faulted, so it stays even after everyone unmaps.
	spaces[0].Free()
	spaces[2].Free()
	rep = h.Report()
	if len(rep.Regions) != 1 || rep.Regions[0].Sharers != 0 || rep.Regions[0].BaseResidentPages != 0 {
		t.Fatalf("dormant faulted region = %+v", rep.Regions)
	}
	if rep.UsedBytes != 0 {
		t.Fatalf("used after full teardown = %d", rep.UsedBytes)
	}
	if rep.HighWaterBytes == 0 {
		t.Fatal("high water lost after teardown")
	}
}

func TestReportWriteText(t *testing.T) {
	h, _, _ := reportFixture()
	var sb strings.Builder
	if err := h.Report().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"SPACE", "RSS", "PSS", "snapshot page lineage", "snap#1", "sharing efficiency", "page-exact"} {
		if !strings.Contains(out, want) {
			t.Errorf("report text missing %q:\n%s", want, out)
		}
	}
}

// TestBreakdownByKindWithSplits covers the CoW arithmetic of the
// per-kind PSS decomposition: clean shared pages split 1/N, partially
// split pages split across remaining referents, own copies private.
func TestBreakdownByKindWithSplits(t *testing.T) {
	h := NewHost(1<<30, 0.6)
	r := h.NewRegion("rt", KindRuntime, 10)
	a := h.NewSpace("a")
	b := h.NewSpace("b")
	a.MapRegion(r)
	b.MapRegion(r)
	a.DirtyPage(r, 0) // a holds a private copy; b alone references base
	a.AllocPrivate(KindHeap, 3)

	ba := a.BreakdownByKind()
	// a: 9 clean pages at 1/2 + 1 private copy + 3 heap pages.
	if got, want := ba[KindRuntime], 9*float64(PageSize)/2+PageSize; got != want {
		t.Fatalf("a runtime = %v, want %v", got, want)
	}
	if got := ba[KindHeap]; got != 3*PageSize {
		t.Fatalf("a heap = %v", got)
	}
	bb := b.BreakdownByKind()
	// b: 9 clean pages at 1/2 + sole referent of page 0's base frame.
	if got, want := bb[KindRuntime], 9*float64(PageSize)/2+PageSize; got != want {
		t.Fatalf("b runtime = %v, want %v", got, want)
	}
	// The two breakdowns plus nothing else must sum to host usage.
	var total float64
	for _, v := range ba {
		total += v
	}
	for _, v := range bb {
		total += v
	}
	if got := uint64(math.Round(total)); got != h.Used() {
		t.Fatalf("breakdown sum %d != used %d", got, h.Used())
	}
}

// TestUnmapWithOpenCoWSplits frees a space that still holds CoW copies:
// its copies must be released and the base frames it left re-balanced.
func TestUnmapWithOpenCoWSplits(t *testing.T) {
	h := NewHost(1<<30, 0.6)
	r := h.NewRegion("rt", KindRuntime, 8)
	a := h.NewSpace("a")
	b := h.NewSpace("b")
	a.MapRegion(r)
	b.MapRegion(r)
	// Both split page 0 → base frame reclaimed (8 base - 1 + 2 copies).
	a.DirtyPage(r, 0)
	b.DirtyPage(r, 0)
	if got, want := h.Used(), uint64(9*PageSize); got != want {
		t.Fatalf("used = %d, want %d", got, want)
	}
	// a leaves with its split open: its copy goes away, and because b
	// also split page 0, the base frame stays reclaimed with b as the
	// sole sharer.
	a.Free()
	if got, want := h.Used(), uint64(8*PageSize); got != want {
		t.Fatalf("used after a.Free = %d, want %d", got, want)
	}
	if got := b.USS(); got != 8*PageSize {
		t.Fatalf("b USS = %d, want sole ownership of everything", got)
	}
	b.Free()
	if h.Used() != 0 {
		t.Fatalf("used after full teardown = %d", h.Used())
	}
}

// TestLastSharerPromotion: when the second-to-last sharer leaves, the
// survivor becomes sole referent — its USS absorbs the whole region and
// reclaimed base frames of pages only the leaver had split come back.
func TestLastSharerPromotion(t *testing.T) {
	h := NewHost(1<<30, 0.6)
	r := h.NewRegion("rt", KindRuntime, 8)
	a := h.NewSpace("a")
	b := h.NewSpace("b")
	a.MapRegion(r)
	b.MapRegion(r)
	b.DirtyPage(r, 3) // b's copy exists; a alone references base of 3
	if got := a.USS(); got != PageSize {
		t.Fatalf("a USS with co-sharer = %d, want %d (sole referent of page 3)", got, PageSize)
	}
	b.Free()
	// a is promoted: every base frame is uniquely a's now.
	if got, want := a.USS(), uint64(8*PageSize); got != want {
		t.Fatalf("a USS after promotion = %d, want %d", got, want)
	}
	if got, want := a.PSS(), float64(8*PageSize); got != want {
		t.Fatalf("a PSS after promotion = %v, want %v", got, want)
	}
	if got, want := h.Used(), uint64(8*PageSize); got != want {
		t.Fatalf("used = %d, want %d", got, want)
	}
	l := r.Lineage()
	if l.Sharers != 1 || l.SharedPages != 8 || l.PartialPages != 0 || l.ReclaimedPages != 0 {
		t.Fatalf("lineage after promotion = %+v", l)
	}
}

// TestLastSharerPromotionRematerialize: a page every sharer had split
// (base reclaimed) must re-materialize when a fresh space maps the
// region again.
func TestLastSharerPromotionRematerialize(t *testing.T) {
	h := NewHost(1<<30, 0.6)
	r := h.NewRegion("rt", KindRuntime, 4)
	a := h.NewSpace("a")
	a.MapRegion(r)
	a.DirtyPage(r, 0) // sole sharer splits → base reclaimed
	if got, want := h.Used(), uint64(4*PageSize); got != want {
		t.Fatalf("used = %d, want %d", got, want)
	}
	b := h.NewSpace("b")
	b.MapRegion(r) // base of page 0 re-materializes for b
	if got, want := h.Used(), uint64(5*PageSize); got != want {
		t.Fatalf("used after remap = %d, want %d", got, want)
	}
	if got := r.Lineage().ReclaimedPages; got != 0 {
		t.Fatalf("reclaimed after remap = %d", got)
	}
	a.Free()
	b.Free()
	if h.Used() != 0 {
		t.Fatalf("used after teardown = %d", h.Used())
	}
}

func TestInstrumentedGaugesAndPSSHistogram(t *testing.T) {
	reg := metrics.NewRegistry()
	h := NewHost(1<<30, 0.6)
	h.Instrument(reg)
	r := h.NewRegion("rt", KindRuntime, 10)
	s := h.NewSpace("s")
	s.MapRegion(r)
	s.DirtyPage(r, 0)
	s.AllocPrivate(KindHeap, 4)

	if got := reg.Gauge("mem_private_frames").Value(); got != 5 {
		t.Fatalf("mem_private_frames = %d, want 5", got)
	}
	// The sole sharer split page 0, so its base frame was reclaimed:
	// 9 shared frames remain.
	if got := reg.Gauge("mem_shared_frames").Value(); got != 9 {
		t.Fatalf("mem_shared_frames = %d, want 9", got)
	}
	if got := reg.Gauge("mem_swapped_frames").Value(); got != 0 {
		t.Fatalf("mem_swapped_frames = %d, want 0", got)
	}
	if got := reg.Gauge("mem_high_water_bytes").Value(); got != 14*PageSize {
		t.Fatalf("mem_high_water_bytes = %d", got)
	}
	if got := reg.Counter(metrics.Name("mem_cow_faults_by_kind", "kind", "runtime")).Value(); got != 1 {
		t.Fatalf("per-kind cow counter = %d", got)
	}
	// Teardown observes the space's final PSS into mem_pss_bytes.
	wantPSS := s.PSS()
	s.Free()
	hist := reg.HistogramWith("mem_pss_bytes", "bytes", pssBuckets())
	if hist.Count() != 1 {
		t.Fatalf("mem_pss_bytes count = %d, want 1", hist.Count())
	}
	if got := hist.Sum(); got != wantPSS {
		t.Fatalf("mem_pss_bytes sum = %v, want %v", got, wantPSS)
	}
	if got := reg.Gauge("mem_high_water_bytes").Value(); got != 14*PageSize {
		t.Fatalf("high water after teardown = %d", got)
	}
}

// TestSwappedFramesGauge crosses the swap threshold and checks the
// swapped-frame estimate tracks the excess.
func TestSwappedFramesGauge(t *testing.T) {
	reg := metrics.NewRegistry()
	h := NewHost(100*PageSize, 0.5) // threshold: 50 pages
	h.Instrument(reg)
	s := h.NewSpace("s")
	s.AllocPrivate(KindHeap, 60)
	if got := reg.Gauge("mem_swapped_frames").Value(); got != 10 {
		t.Fatalf("mem_swapped_frames = %d, want 10", got)
	}
	rep := h.Report()
	if rep.SwappedBytes != 10*PageSize || !rep.Swapping {
		t.Fatalf("report swap = %+v", rep)
	}
	s.FreePrivate(KindHeap, 20)
	if got := reg.Gauge("mem_swapped_frames").Value(); got != 0 {
		t.Fatalf("mem_swapped_frames after free = %d, want 0", got)
	}
	s.Free()
}

// TestConcurrentReportRace hammers Report while spaces churn — the
// report walks every space under the host lock, so this must be clean
// under -race.
func TestConcurrentReportRace(t *testing.T) {
	h := NewHost(1<<30, 0.6)
	r := h.NewRegion("rt", KindRuntime, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := h.NewSpace("s")
				s.MapRegion(r)
				s.DirtyPages(r, (g+1)*7%64)
				s.AllocPrivate(KindHeap, 3)
				_ = s.PSS()
				s.Free()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			rep := h.Report()
			if !rep.PSSPageExact {
				t.Errorf("mid-churn report not page-exact: pss %v used %d", rep.PSSSumBytes, rep.UsedBytes)
				return
			}
		}
	}()
	wg.Wait()
	if h.Used() != 0 {
		t.Fatalf("leak: used = %d", h.Used())
	}
}

// TestConcurrentRangeDirtyReportRace runs the range fault path, Free and
// MapRegion on several goroutines while another takes fleet reports;
// every report must be page-exact. Run under -race.
func TestConcurrentRangeDirtyReportRace(t *testing.T) {
	h := NewHost(1<<30, 0.6)
	r := h.NewRegion("rt", KindRuntime, 300)
	anchor := h.NewSpace("anchor")
	anchor.MapRegion(r)
	anchor.DirtyFrom(r, 0, 64, 64)
	done := make(chan struct{})
	var reports sync.WaitGroup
	reports.Add(1)
	go func() {
		defer reports.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if rep := h.Report(); !rep.PSSPageExact {
				t.Errorf("mid-churn report not page-exact: pss %v used %d", rep.PSSSumBytes, rep.UsedBytes)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				s := h.NewSpace("s")
				s.MapRegion(r)
				for from := g * 10; from < r.Pages(); {
					_, next := s.DirtyFrom(r, from, r.Pages(), 7+g)
					from = next + 3
				}
				s.Free()
			}
		}(g)
	}
	wg.Wait()
	close(done)
	reports.Wait()
	anchor.Free()
	if h.Used() != 0 {
		t.Fatalf("leak: used = %d", h.Used())
	}
}
