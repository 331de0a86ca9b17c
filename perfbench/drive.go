package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/videomodel"
)

func decodeBody(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}

// driver sends a workload's requests over loopback HTTP and tallies
// outcomes. All traffic shares one client whose connection pool is
// capped at nproc. A timed phase only sends requests and reads replies;
// the replies are checked after the phase (settle), so the checks' cost
// is in no latency or CPU figure.
type driver struct {
	hc      *http.Client
	url     string
	sys     *system
	check   *checker
	gens    *generations
	fedMems []fedMember

	mu        sync.Mutex
	answers   map[*request][]*answer // distinct replies per request
	kept      []sample               // the phase's operations, not yet settled
	attempted [numOps]int
	failed    [numOps]int
	lat       [numOps][]time.Duration
	at        [numOps][]time.Duration // each sample's place in its phase
	retrain   []time.Duration
	late      []time.Duration // generator lateness of each dispatch
	lateAt    []time.Duration // its place in the phase
	checkErr  error
	acked     map[videomodel.VideoID]bool
	feedbacks int
	retrains  int
}

func newDriver(sys *system, conns int, check *checker, gens *generations) *driver {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &driver{
		hc:      &http.Client{Transport: tr, Timeout: 60 * time.Second},
		url:     sys.url,
		sys:     sys,
		check:   check,
		gens:    gens,
		fedMems: sys.fedMembers,
		answers: make(map[*request][]*answer),
		acked:   make(map[videomodel.VideoID]bool),
	}
}

func (d *driver) close() { d.hc.CloseIdleConnections() }

// answer is one reply to a request. Replies with the same bytes to the
// same request, answered while the same generations were published, are
// kept once and checked once.
type answer struct {
	r      *request
	status int // 0 when no reply arrived
	body   []byte
	gens   int // generations published when it was answered

	judged bool
	out    outcome
}

// outcome is the result of one operation.
type outcome struct {
	ok        bool // answered in full: no shed, error, truncation or degraded shard
	retrained bool
	video     videomodel.VideoID // an accepted ingest's video
	resp      *api.QueryResponse
	model     *hmmm.Model // generation that explains a query response
}

// sample is one timed operation awaiting its check.
type sample struct {
	a       *answer
	at, lat time.Duration
}

func (d *driver) fail(err error) {
	d.mu.Lock()
	if d.checkErr == nil {
		d.checkErr = err
	}
	d.mu.Unlock()
}

func (d *driver) checkFailed() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.checkErr
}

// fetch sends one request and reads its reply, with no checking.
func (d *driver) fetch(r *request) *answer {
	a := &answer{r: r}
	resp, err := d.hc.Post(d.url+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return a
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return a
	}
	a.status, a.body = resp.StatusCode, body
	if r.kind == opQuery || r.kind == opFeedback {
		// The generation that served a query, or that a retrain
		// published, was published before this reply was sent, so
		// capturing the current one here cannot miss it.
		a.gens = d.gens.add(d.sys.srv.Model())
	}
	return a
}

// keep records a timed operation for settle.
func (d *driver) keep(a *answer, at, lat time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.kept = append(d.kept, sample{d.intern(a), at, lat})
}

// intern returns the kept answer equal to a, keeping a if there is none.
func (d *driver) intern(a *answer) *answer {
	for _, b := range d.answers[a.r] {
		if b.status == a.status && b.gens == a.gens && bytes.Equal(b.body, a.body) {
			return b
		}
	}
	d.answers[a.r] = append(d.answers[a.r], a)
	return a
}

// settle checks the operations the last phase kept and tallies them.
func (d *driver) settle() {
	d.mu.Lock()
	kept := d.kept
	d.kept = nil
	d.mu.Unlock()
	for _, s := range kept {
		d.tally(s.a.r, d.judge(s.a), s.at, s.lat)
	}
}

// judge decodes and checks an answer once. A wrong answer is a check
// failure; one that is refused, truncated or degraded is a failed
// operation.
func (d *driver) judge(a *answer) outcome {
	if !a.judged {
		var err error
		a.out, err = d.verdict(a)
		a.judged = true
		if err != nil {
			d.fail(err)
		}
	}
	return a.out
}

func (d *driver) verdict(a *answer) (outcome, error) {
	r := a.r
	if a.status != http.StatusOK {
		if a.status == http.StatusBadRequest || a.status == http.StatusUnprocessableEntity {
			return outcome{}, fmt.Errorf("%s %s: HTTP %d: %s", r.path, r.body, a.status, bytes.TrimSpace(a.body))
		}
		return outcome{}, nil
	}
	switch r.kind {
	case opQuery:
		var qr api.QueryResponse
		if err := json.Unmarshal(a.body, &qr); err != nil {
			return outcome{}, fmt.Errorf("decoding query response: %w", err)
		}
		if qr.Cost.Truncated || qr.Cost.DegradedShards > 0 {
			return outcome{}, nil
		}
		m, err := d.check.checkQuery(r, &qr, a.gens)
		return outcome{ok: true, resp: &qr, model: m}, err
	case opFed:
		var fr api.FederatedQueryResponse
		if err := json.Unmarshal(a.body, &fr); err != nil {
			return outcome{}, fmt.Errorf("decoding federated response: %w", err)
		}
		if fr.Cost.Truncated {
			return outcome{}, nil
		}
		return outcome{ok: true}, checkFed(d.fedMems, r, &fr)
	case opFeedback:
		var fb api.FeedbackResponse
		if err := json.Unmarshal(a.body, &fb); err != nil {
			return outcome{}, fmt.Errorf("decoding feedback response: %w", err)
		}
		return outcome{ok: true, retrained: fb.Retrained}, nil
	case opIngest:
		var ir api.IngestResponse
		if err := json.Unmarshal(a.body, &ir); err != nil {
			return outcome{}, fmt.Errorf("decoding ingest response: %w", err)
		}
		return outcome{ok: true, video: videomodel.VideoID(ir.VideoID)}, nil
	}
	return outcome{}, nil
}

// tally counts one checked operation; latency counts from when it was
// due, and at places the sample in its phase.
func (d *driver) tally(r *request, out outcome, at, lat time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.attempted[r.kind]++
	if !out.ok {
		d.failed[r.kind]++
		return
	}
	switch r.kind {
	case opFeedback:
		d.feedbacks++
		if out.retrained {
			d.retrains++
			d.retrain = append(d.retrain, lat)
			return
		}
	case opIngest:
		d.acked[out.video] = true
	}
	d.lat[r.kind] = append(d.lat[r.kind], lat)
	d.at[r.kind] = append(d.at[r.kind], at)
}

// windows is how many equal parts of the open loop the generator's
// lateness is judged in; each (about two seconds at the benchmark's run
// length) holds several of every periodic event the workloads cause.
const windows = 8

// hostLateMS is the generator lateness p90 above which a window counts
// as hit by the host. The dispatcher is late by tens of microseconds
// when the machine is its own; when other tenants take the CPUs it is
// late by milliseconds, whatever the program does.
const hostLateMS = 3.0

func window(at, phase time.Duration) int {
	return min(max(int(at*windows/phase), 0), windows-1)
}

// hostWindows reports which windows of an open-loop phase the
// generator's own lateness shows the host took the CPUs in. Windows are
// judged by the dispatcher alone, never by the program's latency, so the
// program's own stalls stay in the figures wherever they fall. If the
// host hit more than half the windows, the half with the least
// dispatcher lateness is kept.
func (d *driver) hostWindows(phase time.Duration) (hit [windows]bool, lateP90 [windows]float64) {
	per := make([][]float64, windows)
	for i, l := range d.late {
		w := window(d.lateAt[i], phase)
		per[w] = append(per[w], ms(l))
	}
	order := make([]int, windows)
	for w := range per {
		lateP90[w] = quantile(per[w], 0.9)
		if len(per[w]) == 0 {
			lateP90[w] = 0
		}
		order[w] = w
	}
	sort.SliceStable(order, func(i, j int) bool { return lateP90[order[i]] < lateP90[order[j]] })
	for rank, w := range order {
		hit[w] = lateP90[w] > hostLateMS && rank >= windows/2
	}
	return hit, lateP90
}

// openP50 is the median latency (ms) of one operation type over the
// open-loop windows the host left alone.
func (d *driver) openP50(kind opKind, phase time.Duration) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	hit, _ := d.hostWindows(phase)
	var xs []float64
	for i, lat := range d.lat[kind] {
		if !hit[window(d.at[kind][i], phase)] {
			xs = append(xs, ms(lat))
		}
	}
	return median(xs)
}

// samples returns a copy of the latency samples of one operation type,
// or of the generator's lateness for kind -1.
func (d *driver) samples(kind opKind) []time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	if kind < 0 {
		return append([]time.Duration(nil), d.late...)
	}
	return append([]time.Duration(nil), d.lat[kind]...)
}

// resetSamples drops latency samples (not counts) between phases.
func (d *driver) resetSamples() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lat = [numOps][]time.Duration{}
	d.at = [numOps][]time.Duration{}
	d.retrain = nil
	d.late, d.lateAt = nil, nil
}

// closedLoop runs conns clients, each sending the next request of list as
// soon as its previous one is answered, for dur, and returns the number
// of replies. Call settle afterwards to check and tally them.
func (d *driver) closedLoop(list []*request, conns int, dur time.Duration) int {
	var next, done atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := list[int(next.Add(1)-1)%len(list)]
				t0 := time.Now()
				a := d.fetch(r)
				t1 := time.Now()
				d.keep(a, t1.Sub(start), t1.Sub(t0))
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	return int(done.Load())
}

// openLoop sends every scheduled operation at its due time, whether or
// not earlier ones were answered (call settle afterwards): queries and federated queries each on
// their own goroutine, feedback and ingest each from one serial client
// (one user at a time marks results or uploads videos, so their counts
// of retrains and compactions follow from the schedule alone). Latency
// is timed from the due time, so a stall also charges the requests it
// delayed.
func (d *driver) openLoop(schedule []op) {
	start := time.Now()
	var wg sync.WaitGroup
	// A short sleep here overshoots by up to a millisecond, which would
	// read as server latency. Each waiter learns its overshoot, sleeps
	// that much less, and spins out the small remainder.
	waiter := func() func(time.Duration) {
		var slack time.Duration
		return func(due time.Duration) {
			target := start.Add(due)
			if dt := time.Until(target) - slack; dt > 0 {
				t0 := time.Now()
				time.Sleep(dt)
				slack += (time.Since(t0) - dt - slack) / 8
			}
			for time.Now().Before(target) {
				runtime.Gosched()
			}
		}
	}
	send := func(o op, dispatched bool) {
		if dispatched {
			// Generator lateness: how long after its due time the
			// dispatcher got a request onto the wire. The serial streams
			// wait for their previous answer, which is the server's delay.
			late := time.Since(start.Add(o.due))
			d.mu.Lock()
			d.late = append(d.late, late)
			d.lateAt = append(d.lateAt, o.due)
			d.mu.Unlock()
		}
		a := d.fetch(o.req)
		d.keep(a, o.due, time.Since(start.Add(o.due)))
	}
	serial := map[opKind][]op{}
	var concurrent []op
	for _, o := range schedule {
		if o.req.kind == opFeedback || o.req.kind == opIngest {
			serial[o.req.kind] = append(serial[o.req.kind], o)
		} else {
			concurrent = append(concurrent, o)
		}
	}
	for _, ops := range serial {
		wg.Add(1)
		go func(ops []op) {
			defer wg.Done()
			wait := waiter()
			for _, o := range ops {
				wait(o.due)
				send(o, false)
			}
		}(ops)
	}
	wait := waiter()
	for _, o := range concurrent {
		wait(o.due)
		wg.Add(1)
		go func(o op) {
			defer wg.Done()
			send(o, true)
		}(o)
	}
	wg.Wait()
}
