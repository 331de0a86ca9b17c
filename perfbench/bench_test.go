package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/matn"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/synthvideo"
	"github.com/videodb/hmmm/internal/videomodel"
)

// small builds a small seeded corpus and model of one domain.
func small(t *testing.T, d *videomodel.Domain, seed uint64) (*hmmm.Model, *groundTruth) {
	t.Helper()
	a, f, err := synthvideo.GenerateArchive(synthvideo.ArchiveConfig{Seed: seed, Videos: 6, Shots: 600, Annotated: 150, Domain: d})
	if err != nil {
		t.Fatal(err)
	}
	m, err := hmmm.Build(a, f, hmmm.BuildOptions{LearnP12: true, Domain: d})
	if err != nil {
		t.Fatal(err)
	}
	return m, newGroundTruth(a, d)
}

func toQuery(br branch) retrieval.Query {
	var q retrieval.Query
	for _, st := range br {
		q.Steps = append(q.Steps, retrieval.Step{Events: st.events, Not: st.not, MinGapMS: st.minGap, MaxGapMS: st.maxGap})
	}
	return q
}

// TestScorerAgreesWithBruteForce recomputes every score of the
// program's exhaustive oracle with the benchmark's own Eq. 12-15 scorer,
// and checks the one-step exhaustive ranking against it, on each domain.
func TestScorerAgreesWithBruteForce(t *testing.T) {
	for _, name := range videomodel.DomainNames() {
		d, _ := videomodel.DomainByName(name)
		for seed := uint64(1); seed <= 3; seed++ {
			m, gt := small(t, d, seed)
			g := newGen(seed, 7, d, gt)
			for i := 0; i < 12; i++ {
				p := g.linear(1 + i%3)
				if i%4 == 3 {
					p = g.form("negation")
				}
				br := p.expand()[0]
				want, err := retrieval.BruteForce(m, toQuery(br), 10)
				if err != nil {
					t.Fatal(err)
				}
				for _, mt := range want.Matches {
					if got := score(m, mt.States, br); !scoreEqual(got, mt.Score) {
						t.Fatalf("%s seed %d %q states %v: scorer %.17g, brute force %.17g", name, seed, p.text(d), mt.States, got, mt.Score)
					}
				}
				if len(br) != 1 {
					continue
				}
				ex := exhaustive(m, gt, br[0], nil, false, 0, 10, nil)
				if len(ex) != len(want.Matches) {
					t.Fatalf("%s %q: exhaustive %d matches, brute force %d", name, p.text(d), len(ex), len(want.Matches))
				}
				for k, r := range ex {
					if r.state != want.Matches[k].States[0] || !scoreEqual(r.score, want.Matches[k].Score) {
						t.Fatalf("%s %q rank %d: exhaustive %+v, brute force %v %g", name, p.text(d), k+1, r, want.Matches[k].States, want.Matches[k].Score)
					}
				}
			}
		}
	}
}

// TestExpansionMatchesCompiler pins the benchmark's own reading of each
// generated MATN form to the program's compiler: same linear branches.
func TestExpansionMatchesCompiler(t *testing.T) {
	d := videomodel.Soccer()
	_, gt := small(t, d, 5)
	g := newGen(5, 8, d, gt)
	key := func(steps []retrieval.Step) string {
		b, _ := json.Marshal(steps)
		return string(b)
	}
	for i := 0; i < 200; i++ {
		p := g.form(matnForms[i%len(matnForms)])
		qs, err := matn.CompileStringDomain(p.text(d), d)
		if err != nil {
			t.Fatalf("%q: %v", p.text(d), err)
		}
		var got, want []string
		for _, q := range qs {
			steps := q.Steps
			if len(steps) == 0 {
				for _, e := range q.Events {
					steps = append(steps, retrieval.Step{Events: []videomodel.Event{e}})
				}
			}
			got = append(got, key(steps))
		}
		for _, br := range p.expand() {
			want = append(want, key(toQuery(br).Steps))
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%q: compiler %v, benchmark %v", p.text(d), got, want)
		}
	}
}

func TestQuantileAndQuartiles(t *testing.T) {
	xs := []float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {1, 10}, {0.9, 9.1}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	if q1, q3 := quartiles([]float64{4, 3, 2, 1}); q1 != 1.25 || q3 != 3.75 {
		t.Errorf("quartiles = %v, %v; want 1.25, 3.75", q1, q3)
	}
	if got := relIQR(xs); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("relIQR = %v, want 1", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

// TestScheduleDeterministic checks that the open-loop schedule depends
// on the seed alone.
func TestScheduleDeterministic(t *testing.T) {
	d := videomodel.Soccer()
	_, gt := small(t, d, 2)
	sp := findSpec("live-rw")
	build := func(seed uint64) []op {
		g := newGen(seed, 1, d, gt)
		list, hot := sp.queries(g)
		fb := feedbackRequests(g.feedbackMarks(10, [][2]int{{0, 20}, {20, 45}}))
		return sp.schedule(newGen(seed, 3, d, gt), 5*time.Second, list, hot, list[:5], fb, seed)
	}
	render := func(ops []op) string {
		b, _ := json.Marshal(func() []any {
			var out []any
			for _, o := range ops {
				out = append(out, []any{o.due, string(o.req.body)})
			}
			return out
		}())
		return string(b)
	}
	a, b, c := render(build(4)), render(build(4)), render(build(5))
	if a != b {
		t.Fatal("same seed gave different schedules")
	}
	if a == c {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(name, u string) {
		if !valid.MatchString(name) || seen[name] {
			t.Errorf("metric name %q invalid or repeated", name)
		}
		if !unit.MatchString(u) {
			t.Errorf("metric %q unit %q invalid", name, u)
		}
		seen[name] = true
	}
	for _, m := range bf.EndToEnd {
		check(m.Name, m.Unit)
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run prints %d", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range bf.PerLayer {
		check(m.Name, m.Unit)
		if lm := layerMetrics[i]; lm.name != m.Name || lm.unit != m.Unit || lm.better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s, %s), traced run %s (%s, %s)", i, m.Name, m.Unit, m.Better, lm.name, lm.unit, lm.better)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
}

// served runs a request through an engine configured as the server
// configures it and renders the answer as the HTTP API would.
func served(t *testing.T, m *hmmm.Model, d *videomodel.Domain, r *request) *api.QueryResponse {
	t.Helper()
	e, err := retrieval.NewEngine(m, retrieval.Options{Beam: 4, TopK: 10, AnnotatedOnly: !r.similar})
	if err != nil {
		t.Fatal(err)
	}
	var all []retrieval.Match
	for _, br := range r.branches {
		res, err := e.Retrieve(toQuery(br))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, res.Matches...)
	}
	resp := &api.QueryResponse{Pattern: r.pattern}
	for i, mt := range retrieval.MergeRanked(all, 10) {
		mj := api.MatchJSON{Rank: i + 1, Score: mt.Score, States: mt.States}
		for j, s := range mt.States {
			mj.Shots = append(mj.Shots, int(mt.Shots[j]))
			mj.Videos = append(mj.Videos, int(mt.Videos[j]))
			var names []string
			for _, e := range m.States[s].Events {
				names = append(names, d.EventName(e))
			}
			mj.Events = append(mj.Events, names)
		}
		resp.Matches = append(resp.Matches, mj)
	}
	return resp
}

func clone(resp *api.QueryResponse) *api.QueryResponse {
	b, _ := json.Marshal(resp)
	var out api.QueryResponse
	json.Unmarshal(b, &out)
	return &out
}

// TestPerturbedResponsesFail feeds the checks a correct response and
// then broken copies of it: swapped ranks, a wrong score, a match that
// carries a negated event, and a truncated exhaustive ranking.
func TestPerturbedResponsesFail(t *testing.T) {
	d := videomodel.Soccer()
	m, gt := small(t, d, 3)
	gens := &generations{}
	gens.add(m)
	c := newChecker(gt, d, gens)
	goal := pattern{one(videomodel.EventGoal)}
	r := newQueryRequest(goal, d, 0, false, nil)
	ok := served(t, m, d, r)
	if len(ok.Matches) < 3 {
		t.Fatalf("fixture has %d matches", len(ok.Matches))
	}
	if _, err := c.checkQuery(r, ok, 1); err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}
	seq := newQueryRequest(pattern{one(videomodel.EventGoal), one(videomodel.EventGoal)}, d, 0, false, nil)
	if okSeq := served(t, m, d, seq); len(okSeq.Matches) == 0 {
		t.Fatal("two-step fixture has no matches")
	} else if _, err := c.checkQuery(seq, okSeq, 1); err != nil {
		t.Fatalf("correct two-step response rejected: %v", err)
	}

	swapped := clone(ok)
	swapped.Matches[0], swapped.Matches[2] = swapped.Matches[2], swapped.Matches[0]
	swapped.Matches[0].Rank, swapped.Matches[2].Rank = 1, 3
	wrong := clone(ok)
	wrong.Matches[1].Score *= 1.001
	short := clone(ok)
	short.Matches = short.Matches[:len(short.Matches)-1]

	cases := map[string]struct {
		r    *request
		resp *api.QueryResponse
	}{
		"swapped ranks": {r, swapped},
		"wrong score":   {r, wrong},
		"truncated":     {r, short},
	}
	for name, tc := range cases {
		if _, err := c.checkQuery(tc.r, tc.resp, 1); err == nil {
			t.Errorf("%s: perturbed response passed the checks", name)
		}
	}

	// A shot annotated with two events, served for "e & !f".
	for s := range m.States {
		evs := gt.shots[m.States[s].Shot].events
		if len(evs) < 2 {
			continue
		}
		neg := newQueryRequest(pattern{{alts: [][]atom{{{ev: evs[0]}, {ev: evs[1], neg: true}}}}}, d, 0, false, nil)
		mj := api.MatchJSON{Rank: 1, Score: score(m, []int{s}, neg.branches[0]), States: []int{s},
			Shots: []int{int(m.States[s].Shot)}, Videos: []int{int(m.VideoIDs[m.States[s].VideoIdx])},
			Events: [][]string{c.names(evs)}}
		_, err := c.checkQuery(neg, &api.QueryResponse{Matches: []api.MatchJSON{mj}}, 1)
		if err == nil || !strings.Contains(err.Error(), "negated") {
			t.Errorf("negated event present: got %v, want a negation failure", err)
		}
		return
	}
	t.Fatal("fixture has no shot with two events")
}

// TestHostWindows checks that windows are left out by the generator's
// lateness alone, and never more than half of them.
func TestHostWindows(t *testing.T) {
	phase := time.Duration(windows) * time.Second
	build := func(lateWindows ...int) *driver {
		d := &driver{}
		for w := 0; w < windows; w++ {
			late := 10 * time.Microsecond
			if slices.Contains(lateWindows, w) {
				late = 5 * time.Millisecond
			}
			for i := 0; i < 100; i++ {
				at := time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond
				d.late = append(d.late, late)
				d.lateAt = append(d.lateAt, at)
				// The program stalls in window 0: its own slowness,
				// which must not get the window left out.
				lat := time.Millisecond
				if w == 0 {
					lat = 50 * time.Millisecond
				}
				d.lat[opQuery] = append(d.lat[opQuery], lat)
				d.at[opQuery] = append(d.at[opQuery], at)
			}
		}
		return d
	}
	hit, _ := build(3, 5).hostWindows(phase)
	for w, h := range hit {
		if h != (w == 3 || w == 5) {
			t.Fatalf("window %d host-hit %v, want windows 3 and 5 only", w, h)
		}
	}
	n := 0
	hit, _ = build(0, 1, 2, 3, 4, 5, 6).hostWindows(phase)
	for _, h := range hit {
		if h {
			n++
		}
	}
	if n != windows/2 {
		t.Fatalf("%d windows left out, want at most %d", n, windows/2)
	}
	if got := build(3, 5).openP50(opQuery, phase); got != 1 {
		t.Fatalf("open-loop p50 %g ms, want 1", got)
	}
}
