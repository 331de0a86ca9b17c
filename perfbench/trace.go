package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/videodb/hmmm/internal/atomicwrite"
	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/fed"
	"github.com/videodb/hmmm/internal/feedback"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/index"
	"github.com/videodb/hmmm/internal/ingest"
	"github.com/videodb/hmmm/internal/live"
	"github.com/videodb/hmmm/internal/matn"
	"github.com/videodb/hmmm/internal/obs"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/rpc"
	"github.com/videodb/hmmm/internal/shard"
	"github.com/videodb/hmmm/internal/store"
	"github.com/videodb/hmmm/internal/videomodel"
)

// The traced run. Spans are recorded here, in the benchmark, around the
// calls it makes into each layer's public functions; the one span source
// inside the program is the engine's existing Options.Trace stage
// timing. The end-to-end numbers never come from a traced run.

// span is one timed call. Spans of one replayed request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) add(name string, parent, req int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	return id
}

// begin opens a span; end closes it.
func (r *recorder) begin(name string, parent, req int) int {
	now := time.Now()
	return r.add(name, parent, req, now, now)
}

func (r *recorder) end(id int) {
	r.mu.Lock()
	r.spans[id].End = int64(time.Since(r.t0))
	r.mu.Unlock()
}

func (r *recorder) dur(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.spans[id].End - r.spans[id].Start)
}

// selfTimes returns each span name's self times: the span's duration
// minus the part of its interval its children cover.
func (r *recorder) selfTimes() map[string][]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start-covered(s, kids[s.ID])))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics are the per-layer metrics, in BENCHMARK.json order. A
// layer the workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit, better string }{
	{"matn.compile_us", "us", "lower"},
	{"matn.branches", "count/query", "lower"},
	{"retrieval.retrieve_us", "us", "lower"},
	{"retrieval.order_us", "us", "lower"},
	{"retrieval.search_us", "us", "lower"},
	{"retrieval.rank_us", "us", "lower"},
	{"retrieval.edge_evals", "count/query", "lower"},
	{"retrieval.sim_evals", "count/query", "lower"},
	{"retrieval.videos_seen", "count/query", "lower"},
	{"retrieval.engine_build_ms", "ms", "lower"},
	{"index.build_ms", "ms", "lower"},
	{"index.bytes", "B", "lower"},
	{"index.candidates_us", "us", "lower"},
	{"index.kept_videos", "count/query", "lower"},
	{"index.pool_videos", "count/query", "lower"},
	{"hmmm.build_ms", "ms", "lower"},
	{"hmmm.dense_bytes", "B", "lower"},
	{"hmmm.compact_bytes", "B", "lower"},
	{"hmmm.from_compact_ms", "ms", "lower"},
	{"store.save_ms", "ms", "lower"},
	{"store.load_ms", "ms", "lower"},
	{"store.file_bytes", "B", "lower"},
	{"shard.split_ms", "ms", "lower"},
	{"rpc.shard_retrieve_us", "us", "lower"},
	{"rpc.client_retrieve_us", "us", "lower"},
	{"rpc.hop_us", "us", "lower"},
	{"coord.retrieve_us", "us", "lower"},
	{"coord.hedges", "count", "lower"},
	{"coord.retries", "count", "lower"},
	{"server.handler_us", "us", "lower"},
	{"server.http_json_us", "us", "lower"},
	{"server.response_bytes", "B/query", "lower"},
	{"net.loopback_us", "us", "lower"},
	{"coalesce.hit_ratio", "ratio", "higher"},
	{"coalesce.requests", "count", "higher"},
	{"lanes.heavy_share", "ratio", "lower"},
	{"lanes.admitted", "count", "lower"},
	{"fed.query_us", "us", "lower"},
	{"fed.members_run", "count/query", "lower"},
	{"fed.members_skipped", "count/query", "higher"},
	{"ingest.pipeline_ms", "ms", "lower"},
	{"ingest.accept_ms", "ms", "lower"},
	{"live.persist_ms", "ms", "lower"},
	{"live.delta_build_ms", "ms", "lower"},
	{"live.compact_ms", "ms", "lower"},
	{"feedback.mark_us", "us", "lower"},
	{"feedback.log_save_ms", "ms", "lower"},
	{"feedback.retrain_ms", "ms", "lower"},
	{"feedback.call_ms", "ms", "lower"},
	{"feedback.retrain_call_ms", "ms", "lower"},
	{"go.alloc_bytes_per_query", "B", "lower"},
	{"go.gc_per_kquery", "count", "lower"},
	{"loadgen.lateness_p99_ms", "ms", "lower"},
	{"obs.trace_overhead", "ratio", "lower"},
	{"obs.traced_us", "us", "lower"},
	{"obs.untraced_us", "us", "lower"},
}

// Replay sizes: enough calls for a steady median, few enough that the
// traced run stays short.
const (
	replayRequests = 120
	replayFed      = 40
	buildReps      = 3
	ingestReplays  = 4
)

// layers collects per-layer values; set ones overwrite the zero default.
type layers map[string]float64

func medianUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	return median(inUnits(ds, time.Microsecond))
}

// timed runs f reps times and returns the median wall time.
func timed(reps int, f func() error) (time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0))
	}
	return time.Duration(median(inUnits(ds, 1))), nil
}

// traced runs the workload's traffic, then replays its requests layer by
// layer, and reports the per-layer metrics.
func (p *prepared) traced() (*result, error) {
	rec := newRecorder()
	L := layers{}
	if _, err := p.warm(); err != nil {
		return nil, err
	}

	// Closed loop: allocation and GC per query over the whole process.
	total := time.Duration(p.seconds) * time.Second
	closed := time.Duration(float64(total) * closedShare / 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := p.d.closedLoop(p.list, runtime.NumCPU(), closed)
	runtime.ReadMemStats(&after)
	p.d.settle()
	if n > 0 {
		L["go.alloc_bytes_per_query"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
		L["go.gc_per_kquery"] = float64(after.NumGC-before.NumGC) * 1000 / float64(n)
	}
	p.d.resetSamples()

	// Open loop: generator lateness, the write path's call latencies,
	// coalescing and admission.
	st0, err := p.sys.stats()
	if err != nil {
		return nil, err
	}
	p.openLoop(p.sp.schedule(newGen(p.seed, 3, p.chk.d, p.chk.gt), total-closed, p.list, p.hot, p.fedList, p.fback, p.seed))
	L["loadgen.lateness_p99_ms"] = pct(p.d.samples(-1), 0.99)
	if p.sys.live {
		p.d.mu.Lock()
		retrains := append([]time.Duration(nil), p.d.retrain...)
		p.d.mu.Unlock()
		L["ingest.accept_ms"] = pct(p.d.samples(opIngest), 0.5)
		L["feedback.call_ms"] = pct(p.d.samples(opFeedback), 0.5)
		L["feedback.retrain_call_ms"] = pct(retrains, 0.5)
	}
	st1, err := p.sys.stats()
	if err != nil {
		return nil, err
	}
	if r0, r1 := st0.Runtime, st1.Runtime; r0 != nil && r1 != nil {
		if reqs := r1.CoalesceRequests - r0.CoalesceRequests; reqs > 0 {
			L["coalesce.requests"] = float64(reqs)
			L["coalesce.hit_ratio"] = float64(r1.CoalesceHits-r0.CoalesceHits) / float64(reqs)
		}
		if l0, l1 := r0.Lanes, r1.Lanes; l0 != nil && l1 != nil {
			heavy := l1.Heavy.Admitted - l0.Heavy.Admitted
			all := heavy + l1.Fast.Admitted - l0.Fast.Admitted
			if all > 0 {
				L["lanes.admitted"] = float64(all)
				L["lanes.heavy_share"] = float64(heavy) / float64(all)
			}
		}
	}
	endErr := p.endChecks()

	if err := p.replayBuild(L); err != nil {
		return nil, err
	}
	if err := p.replayRequests(rec, L); err != nil {
		return nil, err
	}
	if err := p.replayFed(rec, L); err != nil {
		return nil, err
	}
	if err := p.replayFeedback(rec, L); err != nil {
		return nil, err
	}
	if p.sys.live {
		if err := p.replayIngest(rec, L); err != nil {
			return nil, err
		}
	}
	if p.sys.coordinator != nil {
		cs := p.sys.coordinator.Stats()
		L["coord.hedges"] = float64(cs.Hedges)
		L["coord.retries"] = float64(cs.Retries)
	}
	self := rec.selfTimes()
	for _, name := range []string{"order", "search", "rank"} {
		L["retrieval."+name+"_us"] = medianUS(self["retrieval."+name])
	}
	tracePath := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-%d.jsonl", p.sp.name, p.seed))
	if err := rec.write(tracePath); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}

	line, att, fail := p.d.opsLine()
	fmt.Println(line)
	fmt.Printf("trace: %d spans written to %s\n", len(rec.spans), tracePath)
	res := &result{Correct: true, Attempted: att, Failed: fail, Metrics: map[string]metric{}}
	if err := p.d.checkFailed(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
		res.Correct = false
	}
	if endErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", endErr)
		res.Correct = false
	}
	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metric{L[lm.name], lm.unit}
		fmt.Printf("  %-26s %14.4f %s\n", lm.name, L[lm.name], lm.unit)
	}
	return res, nil
}

// servedOpts returns the engine options the server uses for r.
func (p *prepared) servedOpts(r *request) retrieval.Options {
	o := serveOpts
	if p.sp.pruned {
		o.CoarseCandidates = archiveCoarse
	}
	if r.topK > 0 {
		o.TopK = r.topK
	}
	o.AnnotatedOnly = !r.similar
	return o
}

// replayBuild times the set-up layers on the workload's own corpus.
func (p *prepared) replayBuild(L layers) error {
	main := p.in.main
	var m *hmmm.Model
	d, err := timed(buildReps, func() (err error) {
		m, err = hmmm.Build(main.archive, main.feats, buildOpts())
		return err
	})
	if err != nil {
		return err
	}
	L["hmmm.build_ms"] = ms(d)
	opts := serveOpts
	if p.sp.pruned {
		opts.CoarseCandidates = archiveCoarse
	}
	if d, err = timed(buildReps, func() error { _, err := retrieval.NewEngine(m, opts); return err }); err != nil {
		return err
	}
	L["retrieval.engine_build_ms"] = ms(d)
	if !p.sp.pruned {
		return nil
	}
	var ix *index.Coarse
	d, _ = timed(buildReps, func() error { ix = index.Build(m, refSimEpsilon); return nil })
	L["index.build_ms"], L["index.bytes"] = ms(d), float64(ix.MemoryBytes())
	L["hmmm.dense_bytes"] = float64(m.Snapshot().MemoryBytes())
	cs := m.CompactSnapshot()
	L["hmmm.compact_bytes"] = float64(cs.MemoryBytes())
	if d, err = timed(buildReps, func() error { _, err := hmmm.FromCompactSnapshot(cs); return err }); err != nil {
		return err
	}
	L["hmmm.from_compact_ms"] = ms(d)
	path := filepath.Join(p.workdir, "replay.snap")
	if d, err = timed(buildReps, func() error { return store.SaveModelCompact(path, m) }); err != nil {
		return err
	}
	L["store.save_ms"] = ms(d)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	L["store.file_bytes"] = float64(fi.Size())
	if d, err = timed(buildReps, func() error { _, _, err := store.LoadModelRecover(path); return err }); err != nil {
		return err
	}
	L["store.load_ms"] = ms(d)
	if d, err = timed(buildReps, func() error { _, err := shard.Split(m, archiveShards); return err }); err != nil {
		return err
	}
	L["shard.split_ms"] = ms(d)
	return nil
}

// replaySample picks the replayed requests: the head of the query list.
func replaySample(list []*request, n int) []*request {
	if len(list) > n {
		return list[:n]
	}
	return list
}

// replayRequests replays /api/query requests through each layer in turn:
// MATN compile, the engine per branch (with its stage spans), the coarse
// prefilter, the shard service in process and over the rpc client, the
// coordinator, the HTTP handler on an in-memory recorder, and the same
// request over loopback HTTP.
func (p *prepared) replayRequests(rec *recorder, L layers) error {
	ctx := context.Background()
	m := p.sys.model
	engine, err := retrieval.NewEngine(m, p.servedOpts(&request{}))
	if err != nil {
		return err
	}
	var ix *index.Coarse
	var clients []*rpc.Client
	if p.sp.pruned {
		ix = index.Build(m, refSimEpsilon)
		for _, addr := range p.sys.shardAddrs {
			c := rpc.NewClient(addr, 2*time.Second, 2)
			defer c.Close()
			clients = append(clients, c)
		}
	}
	handler := p.sys.srv.Handler()
	var branches, edges, sims, videos, kept, pool []float64
	var hop, httpJSON, loop, bytesOut []float64
	var compile, retrieve, handle, cand, shardSvc, client, coordT, traced, untraced []time.Duration
	for i, r := range replaySample(p.list, replayRequests) {
		req := i + 1
		opts := p.servedOpts(r)
		var sc *retrieval.Scope
		if r.scope != nil {
			sc = &retrieval.Scope{Video: r.scope.video, FromMS: r.scope.fromMS, ToMS: r.scope.toMS}
		}
		// The base of the tracing overhead: the same compile and engine
		// calls with no span and no stage trace. A first untimed run
		// fills the engine's caches; then the untraced run goes before
		// the traced one on even requests and after it on odd ones.
		untracedRun := func() error {
			t0 := time.Now()
			qs, err := matn.CompileStringDomain(r.pattern, p.chk.d)
			if err != nil {
				return fmt.Errorf("replay compile %q: %w", r.pattern, err)
			}
			eng := engine.WithOptions(opts)
			for _, q := range qs {
				q.Scope = sc
				if _, err := eng.RetrieveContext(ctx, q); err != nil {
					return fmt.Errorf("replay retrieve %q: %w", r.pattern, err)
				}
			}
			untraced = append(untraced, time.Since(t0))
			return nil
		}
		if err := untracedRun(); err != nil {
			return err
		}
		untraced = untraced[:len(untraced)-1]
		if i%2 == 0 {
			if err := untracedRun(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		root := rec.begin("request", -1, req)
		sp := rec.begin("matn.compile", root, req)
		qs, err := matn.CompileStringDomain(r.pattern, p.chk.d)
		rec.end(sp)
		if err != nil {
			return fmt.Errorf("replay compile %q: %w", r.pattern, err)
		}
		compile = append(compile, rec.dur(sp))
		branches = append(branches, float64(len(qs)))
		var cost retrieval.Cost
		var served time.Duration
		for _, q := range qs {
			q.Scope = sc
			tr := obs.NewTrace()
			trStart := time.Now()
			o := opts
			o.Trace = tr
			eng := engine.WithOptions(o)
			sp := rec.begin("retrieval.retrieve", root, req)
			res, err := eng.RetrieveContext(ctx, q)
			rec.end(sp)
			if err != nil {
				return fmt.Errorf("replay retrieve %q: %w", r.pattern, err)
			}
			for _, st := range tr.Spans() {
				rec.add("retrieval."+st.Name, sp, req, trStart.Add(st.Start), trStart.Add(st.Start+st.Dur))
			}
			retrieve = append(retrieve, rec.dur(sp))
			served += rec.dur(sp)
			cost.Add(res.Cost)
		}
		traced = append(traced, time.Since(t0))
		if i%2 == 1 {
			if err := untracedRun(); err != nil {
				return err
			}
		}
		if ix != nil {
			// Behind the coordinator, the request's retrieval time is
			// the coordinator's.
			served = 0
			for _, q := range qs {
				steps := make([][]int, q.Len())
				for j, st := range q.Steps {
					for _, e := range st.Events {
						steps[j] = append(steps[j], e.Index())
					}
				}
				for j, e := range q.Events {
					steps[j] = []int{e.Index()}
				}
				sp = rec.begin("index.candidates", root, req)
				cands, scored := ix.Candidates(steps, archiveCoarse*q.Len(), r.similar)
				rec.end(sp)
				cand = append(cand, rec.dur(sp))
				kept = append(kept, float64(len(cands)))
				pool = append(pool, float64(max(len(cands), scored)))
				wire := &rpc.RetrieveRequest{Query: q, Options: rpc.FromOptions(opts)}
				for k, svc := range p.sys.shardSvcs {
					sp = rec.begin("rpc.shard_retrieve", root, req)
					if _, err := svc.Retrieve(ctx, wire); err != nil {
						return fmt.Errorf("replay shard service: %w", err)
					}
					rec.end(sp)
					sd := rec.dur(sp)
					shardSvc = append(shardSvc, sd)
					sp = rec.begin("rpc.client_retrieve", root, req)
					if _, err := clients[k].Retrieve(ctx, wire); err != nil {
						return fmt.Errorf("replay rpc client: %w", err)
					}
					rec.end(sp)
					client = append(client, rec.dur(sp))
					hop = append(hop, us(rec.dur(sp)-sd))
				}
				sp = rec.begin("coord.retrieve", root, req)
				if _, err := p.sys.coordinator.WithOptions(opts).RetrieveContext(ctx, q); err != nil {
					return fmt.Errorf("replay coordinator: %w", err)
				}
				rec.end(sp)
				coordT = append(coordT, rec.dur(sp))
				served += rec.dur(sp)
			}
		}
		edges = append(edges, float64(cost.EdgeEvals))
		sims = append(sims, float64(cost.SimEvals))
		videos = append(videos, float64(cost.VideosSeen))

		w := httptest.NewRecorder()
		hr := httptest.NewRequest("POST", r.path, bytes.NewReader(r.body))
		sp = rec.begin("server.handler", root, req)
		handler.ServeHTTP(w, hr)
		rec.end(sp)
		if w.Code != 200 {
			return fmt.Errorf("replay handler %q: HTTP %d", r.pattern, w.Code)
		}
		hd := rec.dur(sp)
		handle = append(handle, hd)
		bytesOut = append(bytesOut, float64(w.Body.Len()))
		httpJSON = append(httpJSON, us(hd-compile[len(compile)-1]-served))

		sp = rec.begin("client.query", root, req)
		a := p.d.fetch(r)
		rec.end(sp)
		if !p.d.judge(a).ok {
			return fmt.Errorf("replay over HTTP %q failed", r.pattern)
		}
		loop = append(loop, us(rec.dur(sp)-hd))
		rec.end(root)
	}
	L["obs.traced_us"] = medianUS(traced)
	L["obs.untraced_us"] = medianUS(untraced)
	var ratio []float64
	for i := range traced {
		ratio = append(ratio, float64(traced[i])/float64(untraced[i]))
	}
	L["obs.trace_overhead"] = median(ratio)
	L["matn.compile_us"] = medianUS(compile)
	L["matn.branches"] = mean(branches)
	L["retrieval.retrieve_us"] = medianUS(retrieve)
	L["retrieval.edge_evals"] = mean(edges)
	L["retrieval.sim_evals"] = mean(sims)
	L["retrieval.videos_seen"] = mean(videos)
	L["server.handler_us"] = medianUS(handle)
	L["server.http_json_us"] = median(httpJSON)
	L["server.response_bytes"] = mean(bytesOut)
	L["net.loopback_us"] = median(loop)
	if ix != nil {
		L["index.candidates_us"] = medianUS(cand)
		L["index.kept_videos"] = mean(kept)
		L["index.pool_videos"] = mean(pool)
		L["rpc.shard_retrieve_us"] = medianUS(shardSvc)
		L["rpc.client_retrieve_us"] = medianUS(client)
		L["rpc.hop_us"] = median(hop)
		L["coord.retrieve_us"] = medianUS(coordT)
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// replayFed replays federated requests through Federation.Query.
func (p *prepared) replayFed(rec *recorder, L layers) error {
	var qt []time.Duration
	var run, skipped []float64
	for i, r := range replaySample(p.fedList, replayFed) {
		req := 100000 + i
		sp := rec.begin("fed.query", -1, req)
		resp, err := p.sys.federation.Query(context.Background(), fed.Request{Pattern: r.pattern, Members: r.domains, TopK: r.topK})
		rec.end(sp)
		if err != nil {
			return fmt.Errorf("replay federation %q: %w", r.pattern, err)
		}
		qt = append(qt, rec.dur(sp))
		nr, ns := 0, 0
		for _, mr := range resp.Members {
			if mr.Skipped {
				ns++
			} else {
				nr++
			}
		}
		run = append(run, float64(nr))
		skipped = append(skipped, float64(ns+len(fedDomains)-len(resp.Members)))
	}
	L["fed.query_us"] = medianUS(qt)
	L["fed.members_run"] = mean(run)
	L["fed.members_skipped"] = mean(skipped)
	return nil
}

// replayFeedback marks the workload's feedback list on a fresh log,
// persists it as the server does, and retrains on it.
func (p *prepared) replayFeedback(rec *recorder, L layers) error {
	m := p.sys.model
	log := feedback.NewLog()
	var mark []time.Duration
	for i, r := range p.fback {
		sp := rec.begin("feedback.mark", -1, 200000+i)
		if err := log.MarkPositive(m, r.states); err != nil {
			return fmt.Errorf("replay feedback mark: %w", err)
		}
		rec.end(sp)
		mark = append(mark, rec.dur(sp))
	}
	L["feedback.mark_us"] = medianUS(mark)
	path := filepath.Join(p.workdir, "feedback.log")
	d, err := timed(buildReps, func() error { return atomicwrite.Write(nil, path, log.Save) })
	if err != nil {
		return fmt.Errorf("replay feedback save: %w", err)
	}
	L["feedback.log_save_ms"] = ms(d)
	tr := feedback.NewTrainer(defaultRetrain)
	if d, err = timed(buildReps, func() error { _, err := tr.RetrainSnapshot(m, log); return err }); err != nil {
		return fmt.Errorf("replay retrain: %w", err)
	}
	L["feedback.retrain_ms"] = ms(d)
	return nil
}

// replayIngest runs the ingest pipeline on the workload's ingest
// requests, then the live layer's journal persist, delta build and a
// compaction over the resulting records.
func (p *prepared) replayIngest(rec *recorder, L layers) error {
	main := p.in.main
	var maxVideo videomodel.VideoID
	var maxShot videomodel.ShotID
	for _, v := range main.archive.Videos {
		maxVideo = max(maxVideo, v.ID)
		for _, s := range v.Shots {
			maxShot = max(maxShot, s.ID)
		}
	}
	var pipe, persist []time.Duration
	var records []live.Record
	for i := 0; i < ingestReplays; i++ {
		classes := make([]videomodel.Event, 0, 4)
		for _, name := range ingestClasses[i%len(ingestClasses)] {
			e, err := videomodel.ParseEvent(name)
			if err != nil {
				return err
			}
			classes = append(classes, e)
		}
		sp := rec.begin("ingest.pipeline", -1, 300000+i)
		raw := ingest.SynthesizeRaw(p.seed*1000+uint64(i)+1, fmt.Sprintf("replay-%d", i), classes, 3000)
		res, err := p.sys.pipeline.Segment(raw, maxVideo+1, maxShot+1)
		rec.end(sp)
		if err != nil {
			return fmt.Errorf("replay ingest pipeline: %w", err)
		}
		pipe = append(pipe, rec.dur(sp))
		maxVideo++
		for _, s := range res.Video.Shots {
			maxShot = max(maxShot, s.ID)
		}
		records = append(records, live.NewRecord(res, time.Now().UnixMilli()))
		path := filepath.Join(p.workdir, "replay.journal")
		sp = rec.begin("live.persist", -1, 300000+i)
		if err := live.Persist(nil, path, records); err != nil {
			return fmt.Errorf("replay journal persist: %w", err)
		}
		rec.end(sp)
		persist = append(persist, rec.dur(sp))
	}
	L["ingest.pipeline_ms"] = median(inUnits(pipe, time.Millisecond))
	L["live.persist_ms"] = median(inUnits(persist, time.Millisecond))
	m := p.sys.model
	d, err := timed(buildReps, func() error {
		_, err := live.NewDelta(records, m.NumStates(), 1, buildOpts(), serveOpts)
		return err
	})
	if err != nil {
		return fmt.Errorf("replay delta build: %w", err)
	}
	L["live.delta_build_ms"] = ms(d)
	snap := filepath.Join(p.workdir, "replay.corpus")
	if d, err = timed(buildReps, func() error {
		union, feats, err := live.Union(main.archive, main.feats, records)
		if err != nil {
			return err
		}
		if _, err := hmmm.Build(union, feats, buildOpts()); err != nil {
			return err
		}
		return store.SaveCorpusFS(nil, snap, &dataset.Corpus{Archive: union, Features: feats})
	}); err != nil {
		return fmt.Errorf("replay compaction: %w", err)
	}
	L["live.compact_ms"] = ms(d)
	return nil
}
