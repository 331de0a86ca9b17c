package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/videodb/hmmm/internal/videomodel"
)

// buildDir is where runs keep on-disk state and trace files, relative
// to the checkout root the benchmark runs from.
const buildDir = ".bench_build"

// prepared is a booted workload with its traffic and references.
type prepared struct {
	sp      *spec
	seed    uint64
	seconds int
	sys     *system
	in      *inputs
	setups  []float64 // seconds per boot
	heapMB  float64
	list    []*request
	hot     []*request
	fedList []*request
	fback   []*request
	gens    *generations
	chk     *checker
	d       *driver
	base    int // videos in the generated archive
	workdir string
}

// setupSpan is the least time the timed boots spread over: each starts
// setupSpan/setupReps after the previous one did, or as soon as that one
// is done. On a shared host the speed drifts over seconds, so boots
// packed into a fraction of a second would all read one moment's speed.
const setupSpan = 5 * time.Second

// prepare generates inputs, boots the system setupReps times (timing
// each boot from the generated corpus in memory to the first answered
// query), keeps the last boot, and builds the traffic.
func prepare(sp *spec, seed uint64, seconds int, keepInputs bool) (*prepared, error) {
	p := &prepared{sp: sp, seed: seed, seconds: seconds}
	p.workdir = filepath.Join(buildDir, "run", fmt.Sprintf("%s-%d-%d", sp.name, seed, os.Getpid()))
	in, err := sp.inputs()
	if err != nil {
		return nil, err
	}
	p.in = in
	gt := newGroundTruth(in.main.archive, in.main.domain)
	p.base = len(in.main.archive.Videos)
	start := time.Now()
	for i := 0; i < sp.setupReps; i++ {
		if p.sys != nil {
			p.sys.close()
		}
		dir := filepath.Join(p.workdir, fmt.Sprint(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		runtime.GC()
		if i > 0 {
			time.Sleep(time.Until(start.Add(time.Duration(i) * setupSpan / time.Duration(sp.setupReps))))
		}
		t0 := time.Now()
		p.sys, err = sp.boot(in, dir)
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
	}

	g := newGen(seed, 1, in.main.domain, gt)
	p.list, p.hot = sp.queries(g)
	var fedGens []*gen
	for i, c := range in.fed {
		fgt := newGroundTruth(c.archive, c.domain)
		fedGens = append(fedGens, newGen(seed, uint64(10+i), c.domain, fgt))
		off := 0
		for _, m := range p.sys.fedModels[:i] {
			off += m.NumStates()
		}
		p.sys.fedMembers = append(p.sys.fedMembers, fedMember{
			name: c.domain.Name, offset: off, model: p.sys.fedModels[i],
			check: newChecker(fgt, c.domain, nil),
		})
	}
	p.fedList = fedQueries(fedGens, 5, newGen(seed, 2, in.main.domain, gt))
	m := p.sys.model
	p.fback = feedbackRequests(g.feedbackMarks(40, videoRanges(m.NumVideos(), m.VideoStates)))

	p.gens = &generations{}
	p.gens.add(m)
	p.chk = newChecker(gt, in.main.domain, p.gens)
	p.chk.pruned = sp.pruned
	p.d = newDriver(p.sys, runtime.NumCPU(), p.chk, p.gens)
	if p.sys.live {
		// The server numbers ingested videos past the archive's highest
		// ID, and may serve one before its ingest call has returned.
		maxBase := slices.Max(gt.videos)
		p.chk.fresh = func(v videomodel.VideoID) bool { return v > maxBase }
	}

	if keepInputs {
		return p, nil // the traced run replays the build layers on them
	}
	// Release what the program does not keep (the generated corpora; a
	// live server holds its own reference), then weigh the heap.
	p.in = nil
	in = nil
	p.heapMB = heapMB()
	return p, nil
}

// cpuTime is the process's user plus system CPU time in seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func (p *prepared) close() {
	p.d.close()
	p.sys.close()
	os.RemoveAll(p.workdir)
}

// warm sends every distinct request once before timing starts, checking
// each and computing recall@10 of the one-step queries against the
// uncapped exhaustive ranking.
func (p *prepared) warm() (recall float64, err error) {
	var rs []float64
	for _, r := range append(slices.Clone(p.list), p.hot...) {
		out := p.d.judge(p.d.fetch(r))
		p.d.tally(r, out, 0, 0)
		if !out.ok {
			continue
		}
		if r.single() && out.model != nil {
			if v, ok := p.chk.recall(out.model, r, out.resp); ok {
				rs = append(rs, v)
			}
		}
	}
	for _, r := range p.fedList {
		p.d.tally(r, p.d.judge(p.d.fetch(r)), 0, 0)
	}
	p.d.resetSamples()
	if len(rs) == 0 {
		return 0, fmt.Errorf("no one-step query had an exhaustive ranking")
	}
	var sum float64
	for _, v := range rs {
		sum += v
	}
	return sum / float64(len(rs)), nil
}

// watch records every model the server publishes until stop is closed,
// so responses served by a short-lived generation can still be checked.
func (p *prepared) watch(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			p.gens.add(p.sys.srv.Model())
		}
	}
}

// openLoop runs the open-loop schedule while watching generations, then
// checks and tallies its operations.
func (p *prepared) openLoop(sched []op) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go p.watch(stop, &wg)
	p.d.openLoop(sched)
	close(stop)
	wg.Wait()
	p.d.settle()
}

// endChecks verifies what the schedule implies: one retrain per ten
// feedbacks and, with live ingest, one compaction per eight accepted
// videos and every accepted video served.
func (p *prepared) endChecks() error {
	d := p.d
	d.mu.Lock()
	feedbacks, retrains, acked := d.feedbacks, d.retrains, len(d.acked)
	ackedIDs := make([]videomodel.VideoID, 0, len(d.acked))
	for id := range d.acked {
		ackedIDs = append(ackedIDs, id)
	}
	d.mu.Unlock()
	if want := feedbacks / defaultRetrain; retrains != want {
		return fmt.Errorf("%d feedbacks retrained %d times, want %d", feedbacks, retrains, want)
	}
	if !p.sys.live {
		return nil
	}
	want := uint64(acked / defaultCompactAfter)
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, err := p.sys.stats()
		if err != nil {
			return fmt.Errorf("stats: %w", err)
		}
		if st.Ingest == nil {
			return fmt.Errorf("stats: no ingest section")
		}
		if st.Ingest.Compactions == want && st.Ingest.FreshVideos == acked%defaultCompactAfter {
			m := p.sys.srv.Model()
			in := 0
			for _, id := range ackedIDs {
				if slices.Contains(m.VideoIDs, id) {
					in++
				}
			}
			if m.NumVideos() != p.base+in || acked-in != st.Ingest.FreshVideos {
				return fmt.Errorf("%d videos accepted: model has %d of %d base+compacted, delta %d",
					acked, m.NumVideos(), p.base+in, st.Ingest.FreshVideos)
			}
			return nil
		}
		if time.Now().After(deadline) || st.Ingest.Compactions > want {
			return fmt.Errorf("%d videos accepted: %d compactions and %d fresh, want %d and %d",
				acked, st.Ingest.Compactions, st.Ingest.FreshVideos, want, acked%defaultCompactAfter)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// opsLine renders the attempted and failed count of every operation type.
func (d *driver) opsLine() (string, int, int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var parts []string
	att, fail := 0, 0
	for k := opKind(0); k < numOps; k++ {
		if d.attempted[k] == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s attempted=%d failed=%d", opNames[k], d.attempted[k], d.failed[k]))
		att += d.attempted[k]
		fail += d.failed[k]
	}
	return "ops: " + strings.Join(parts, "; "), att, fail
}

func pct(ds []time.Duration, q float64) float64 {
	return quantile(inUnits(ds, time.Millisecond), q)
}

// run executes one workload and returns its result line.
func run(sp *spec, seed uint64, seconds int, traced bool) (*result, error) {
	p, err := prepare(sp, seed, seconds, traced)
	if err != nil {
		return nil, err
	}
	defer p.close()
	if traced {
		return p.traced()
	}
	recall, err := p.warm()
	if err != nil {
		return nil, err
	}
	total := time.Duration(seconds) * time.Second
	closed := time.Duration(float64(total) * closedShare)
	cpu0 := cpuTime()
	n := p.d.closedLoop(p.list, runtime.NumCPU(), closed)
	cpuPerQuery := (cpuTime() - cpu0) / float64(n)
	p.d.settle()
	p.d.resetSamples()
	open := total - closed
	sched := sp.schedule(newGen(seed, 3, p.chk.d, p.chk.gt), open, p.list, p.hot, p.fedList, p.fback, seed)
	p.openLoop(sched)
	endErr := p.endChecks()

	d := p.d
	line, att, fail := d.opsLine()
	fmt.Println(line)
	q, late := d.samples(opQuery), d.samples(-1)
	fmt.Printf("reference: closed loop %.1f queries/s\n", float64(n)/closed.Seconds())
	fmt.Printf("reference: query p50/p75/p90/p95/p99 %.3f/%.3f/%.3f/%.3f/%.3f ms over %d samples; generator lateness p50/p99 %.3f/%.3f ms\n",
		pct(q, 0.5), pct(q, 0.75), pct(q, 0.9), pct(q, 0.95), pct(q, 0.99), len(q), pct(late, 0.5), pct(late, 0.99))
	d.mu.Lock()
	hit, lateP90 := d.hostWindows(open)
	d.mu.Unlock()
	fmt.Printf("reference: generator lateness p90 per window %.3f ms; left out as host-hit %v\n", lateP90, hit)
	if p.sys.live {
		d.mu.Lock()
		rt := d.retrain
		d.mu.Unlock()
		fmt.Printf("reference: ingest p50 %.3f ms over %d; feedback p50 %.3f ms over %d; retraining feedback p50 %.3f ms over %d\n",
			pct(d.samples(opIngest), 0.5), len(d.samples(opIngest)), pct(d.samples(opFeedback), 0.5), len(d.samples(opFeedback)), pct(rt, 0.5), len(rt))
	}

	res := &result{Correct: true, Attempted: att, Failed: fail}
	if err := d.checkFailed(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
		res.Correct = false
	}
	if endErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", endErr)
		res.Correct = false
	}
	setup := median(p.setups)
	res.Metrics = map[string]metric{
		"setup_s":      {setup, "s"},
		"heap_mb":      {p.heapMB, "MB"},
		"query_cpu_us": {cpuPerQuery * 1e6, "us"},
		"query_p50_ms": {d.openP50(opQuery, open), "ms"},
		"fed_p50_ms":   {d.openP50(opFed, open), "ms"},
		"recall_at_10": {recall, "ratio"},
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("  %-16s %12.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}
