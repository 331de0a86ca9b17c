package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/videomodel"
)

// The reference checks live here, apart from the program: the ground
// truth comes from the generated corpus, scores are recomputed from the
// model's public matrices, and expansion of patterns into branches is
// the benchmark's own (inputs.go). Nothing is compared against a stored
// copy of an earlier output.

// Serving configuration the checks assume: hmmmd's engine options.
const (
	refSimEpsilon = 1e-9 // retrieval.DefaultSimEpsilon
	refBeam       = 4    // per-video complete sequences the engine keeps
	refTopK       = 10
	scoreRelTol   = 1e-9
)

type shotGT struct {
	video   videomodel.VideoID
	startMS int
	events  []videomodel.Event
}

// groundTruth is the generated corpus's annotation of every annotated
// shot, kept after the corpus itself is released.
type groundTruth struct {
	shots      map[videomodel.ShotID]shotGT
	videos     []videomodel.VideoID
	maxStartMS int
	// weighted lists each event about as often as the corpus annotates
	// it (at least once), for drawing patterns that usually match.
	weighted []videomodel.Event
}

func newGroundTruth(a *videomodel.Archive, d *videomodel.Domain) *groundTruth {
	gt := &groundTruth{shots: make(map[videomodel.ShotID]shotGT)}
	counts := make([]int, d.NumEvents()+1)
	total := 0
	for _, v := range a.Videos {
		gt.videos = append(gt.videos, v.ID)
		for _, s := range v.Shots {
			gt.maxStartMS = max(gt.maxStartMS, s.StartMS)
			if len(s.Events) == 0 {
				continue
			}
			gt.shots[s.ID] = shotGT{video: v.ID, startMS: s.StartMS, events: slices.Clone(s.Events)}
			for _, e := range s.Events {
				counts[e]++
				total++
			}
		}
	}
	for _, e := range d.AllEvents() {
		n := 1 + counts[e]*64/max(total, 1)
		for i := 0; i < n; i++ {
			gt.weighted = append(gt.weighted, e)
		}
	}
	return gt
}

func hasAll(have, want []videomodel.Event) bool {
	for _, w := range want {
		if !slices.Contains(have, w) {
			return false
		}
	}
	return true
}

func hasAny(have, any []videomodel.Event) bool {
	for _, w := range any {
		if slices.Contains(have, w) {
			return true
		}
	}
	return false
}

// sim is Eq. 14 recomputed from the model's public B1, B1' and P1,2:
// sim(s, e) = Σ_y P1,2(e, y) · (1 − |B1(s, y) − B1'(e, y)|) / B1'(e, y)
// over the features whose mean B1'(e, y) exceeds the epsilon.
func sim(m *hmmm.Model, s int, e videomodel.Event) float64 {
	ci := e.Index()
	var total float64
	for y := 0; y < m.K(); y++ {
		mean := m.B1Prime.At(ci, y)
		if mean <= refSimEpsilon {
			continue
		}
		d := math.Abs(m.B1.At(s, y) - mean)
		total += m.P12.At(ci, y) * (1 - d) / mean
	}
	return total
}

func simStep(m *hmmm.Model, s int, st step) float64 {
	var sum float64
	for _, e := range st.events {
		sum += sim(m, s, e)
	}
	return sum / float64(len(st.events))
}

// score is Eqs. 12, 13 and 15: w1 = Π1(s1)·sim(s1, e1), then
// wj = wj−1 · A1(sj−1, sj) · sim(sj, ej) within a video (A2 across
// videos), and the pattern score is the sum of the wj.
func score(m *hmmm.Model, states []int, br branch) float64 {
	var w, total float64
	for j, s := range states {
		ss := simStep(m, s, br[j])
		if j == 0 {
			w = m.Pi1[s] * ss
		} else {
			p, c := &m.States[states[j-1]], &m.States[s]
			if p.VideoIdx == c.VideoIdx {
				w = w * m.LocalA[c.VideoIdx].At(p.LocalIdx, c.LocalIdx) * ss
			} else {
				w = w * m.A2.At(p.VideoIdx, c.VideoIdx) * ss
			}
		}
		total += w
	}
	return total
}

func scoreEqual(a, b float64) bool {
	return math.Abs(a-b) <= scoreRelTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// ranked is one entry of the exhaustive ranking.
type ranked struct {
	state int
	score float64
}

func sortRanked(rs []ranked) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].score != rs[j].score {
			return rs[i].score > rs[j].score
		}
		return rs[i].state < rs[j].state
	})
}

// exhaustive ranks every candidate of a one-step query under the
// request's candidate rule: states whose ground truth carries the step's
// events and none of its negated ones; with similar_shots a video with
// no such state offers every non-excluded state instead. perVideo caps
// each video's contribution (the engine keeps refBeam complete sequences
// per video); 0 leaves it uncapped. only, when non-nil, restricts the
// videos searched.
func exhaustive(m *hmmm.Model, gt *groundTruth, st step, sc *scope, similar bool, perVideo, topK int, only map[int]bool) []ranked {
	var all []ranked
	for vi := 0; vi < m.NumVideos(); vi++ {
		if only != nil && !only[vi] {
			continue
		}
		if sc != nil && sc.video != 0 && m.VideoIDs[vi] != sc.video {
			continue
		}
		lo, hi := m.VideoStates(vi)
		var exact, fallback []ranked
		for s := lo; s < hi; s++ {
			g, ok := gt.shots[m.States[s].Shot]
			if !ok || !sc.contains(g.startMS) || hasAny(g.events, st.not) {
				continue
			}
			r := ranked{state: s, score: m.Pi1[s] * simStep(m, s, st)}
			if hasAll(g.events, st.events) {
				exact = append(exact, r)
			} else if similar {
				fallback = append(fallback, r)
			}
		}
		cands := exact
		if len(cands) == 0 {
			cands = fallback
		}
		sortRanked(cands)
		if perVideo > 0 && len(cands) > perVideo {
			cands = cands[:perVideo]
		}
		all = append(all, cands...)
	}
	sortRanked(all)
	if len(all) > topK {
		all = all[:topK]
	}
	return all
}

// generations tracks every model the server has published during the
// run, so a response is checked against the generation that served it.
type generations struct {
	mu     sync.Mutex
	models []*hmmm.Model
}

// add captures m and returns how many generations are known.
func (g *generations) add(m *hmmm.Model) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if m != nil && (len(g.models) == 0 || g.models[len(g.models)-1] != m) && !slices.Contains(g.models, m) {
		g.models = append(g.models, m)
	}
	return len(g.models)
}

// newestFirst returns the first known generations, newest first.
func (g *generations) newestFirst(known int) []*hmmm.Model {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := slices.Clone(g.models[:min(known, len(g.models))])
	slices.Reverse(out)
	return out
}

// checker validates responses of one served archive.
type checker struct {
	gt   *groundTruth
	d    *videomodel.Domain
	gens *generations
	// pruned is set where the coarse prefilter may drop videos, so the
	// exhaustive comparison is restricted to the videos served.
	pruned bool
	// fresh reports whether a video ID was ingested during the run; such
	// videos have no generated ground truth. Nil when nothing is ingested.
	fresh func(videomodel.VideoID) bool

	mu       sync.Mutex
	expected map[expectKey][]ranked
}

type expectKey struct {
	m   *hmmm.Model
	req *request
}

func newChecker(gt *groundTruth, d *videomodel.Domain, gens *generations) *checker {
	return &checker{gt: gt, d: d, gens: gens, expected: make(map[expectKey][]ranked)}
}

func (c *checker) names(es []videomodel.Event) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = c.d.EventName(e)
	}
	return out
}

// checkMatch validates one served match under model m against the
// branches of r. It reports whether the match lies in m's state space at
// all (a live-ingest delta match does not), and an error when it does
// and no branch explains it.
func (c *checker) checkMatch(m *hmmm.Model, r *request, mj *api.MatchJSON) (inModel bool, err error) {
	n := len(mj.States)
	if n == 0 || len(mj.Shots) != n || len(mj.Videos) != n || len(mj.Events) != n {
		return true, fmt.Errorf("match rank %d: ragged states/shots/videos/events", mj.Rank)
	}
	for j, s := range mj.States {
		if s < 0 || s >= m.NumStates() {
			return false, nil
		}
		st := &m.States[s]
		if int(st.Shot) != mj.Shots[j] || int(m.VideoIDs[st.VideoIdx]) != mj.Videos[j] {
			return false, nil
		}
	}
	var why []string
	for _, br := range r.branches {
		if len(br) != n {
			continue
		}
		reason := c.branchViolation(m, r, br, mj)
		if reason == "" {
			if got := score(m, mj.States, br); !scoreEqual(got, mj.Score) {
				reason = fmt.Sprintf("score %.17g, recomputed %.17g", mj.Score, got)
			}
		}
		if reason == "" {
			return true, nil
		}
		why = append(why, reason)
	}
	return true, fmt.Errorf("%q match rank %d states %v: no branch explains it (%v)", r.pattern, mj.Rank, mj.States, why)
}

// branchViolation returns why the match cannot be an instance of br, or
// "" when it is one.
func (c *checker) branchViolation(m *hmmm.Model, r *request, br branch, mj *api.MatchJSON) string {
	var prev shotGT
	for j, s := range mj.States {
		g, ok := c.gt.shots[m.States[s].Shot]
		if !ok {
			if c.fresh != nil && c.fresh(videomodel.VideoID(mj.Videos[j])) {
				// An ingested video: its annotation is the classifier's,
				// not generated ground truth, so check the served labels.
				g = shotGT{video: videomodel.VideoID(mj.Videos[j]), startMS: m.States[s].StartMS, events: m.States[s].Events}
			} else {
				return fmt.Sprintf("step %d shot %d has no ground-truth annotation", j, mj.Shots[j])
			}
		}
		st := br[j]
		if !r.similar && !hasAll(g.events, st.events) {
			return fmt.Sprintf("step %d shot %d annotated %v, lacks %v", j, mj.Shots[j], c.names(g.events), c.names(st.events))
		}
		if hasAny(g.events, st.not) {
			return fmt.Sprintf("step %d shot %d carries a negated event of %v", j, mj.Shots[j], c.names(st.not))
		}
		if r.scope != nil {
			if r.scope.video != 0 && g.video != r.scope.video {
				return fmt.Sprintf("step %d video %d outside scope video %d", j, g.video, r.scope.video)
			}
			if !r.scope.contains(g.startMS) {
				return fmt.Sprintf("step %d starts at %dms outside the scope window", j, g.startMS)
			}
		}
		if j > 0 {
			if g.video != prev.video {
				return fmt.Sprintf("step %d crosses from video %d to %d", j, prev.video, g.video)
			}
			if g.startMS <= prev.startMS {
				return fmt.Sprintf("step %d starts at %dms, not after %dms", j, g.startMS, prev.startMS)
			}
			gap := g.startMS - prev.startMS
			if (st.minGap > 0 && gap < st.minGap) || (st.maxGap > 0 && gap > st.maxGap) {
				return fmt.Sprintf("step %d gap %dms outside [%d, %d]", j, gap, st.minGap, st.maxGap)
			}
		}
		prev = g
	}
	return ""
}

// checkQuery validates one /api/query response: the ranking's shape,
// every match under one published generation, and, for one-step
// requests, equality with the exhaustive ranking, under one of the first
// known generations: those published when the response arrived. It
// returns the generation that explains the response (nil when every
// match came from the live-ingest delta).
func (c *checker) checkQuery(r *request, resp *api.QueryResponse, known int) (*hmmm.Model, error) {
	topK := r.topK
	if topK <= 0 {
		topK = refTopK
	}
	if len(resp.Matches) > topK {
		return nil, fmt.Errorf("%q: %d matches, top_k %d", r.pattern, len(resp.Matches), topK)
	}
	for i := range resp.Matches {
		mj := &resp.Matches[i]
		if mj.Rank != i+1 {
			return nil, fmt.Errorf("%q: match %d has rank %d", r.pattern, i, mj.Rank)
		}
		if i > 0 && mj.Score > resp.Matches[i-1].Score {
			return nil, fmt.Errorf("%q: rank %d scores %g above rank %d's %g", r.pattern, i+1, mj.Score, i, resp.Matches[i-1].Score)
		}
	}
	var firstErr error
	note := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, m := range c.gens.newestFirst(known) {
		ok, anyIn := true, false
		for i := range resp.Matches {
			in, err := c.checkMatch(m, r, &resp.Matches[i])
			if err == nil && !in {
				err = c.checkDeltaMatch(r, &resp.Matches[i])
			}
			if err != nil {
				ok = false
				note(err)
				break
			}
			anyIn = anyIn || in
		}
		if !ok {
			continue
		}
		if !anyIn && len(resp.Matches) > 0 {
			return nil, nil
		}
		if r.single() && c.generated(m) && resp.FreshVideos == 0 {
			if err := c.checkExhaustive(m, r, resp, topK); err != nil {
				note(err)
				continue
			}
		}
		return m, nil
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("%q: no published generation explains the response", r.pattern)
	}
	return nil, fmt.Errorf("no published generation explains the response; newest: %w", firstErr)
}

// generated reports whether every video of m has generated ground truth:
// the exhaustive ranking cannot rank videos ingested during the run.
func (c *checker) generated(m *hmmm.Model) bool {
	return m.NumVideos() == len(c.gt.videos)
}

// checkDeltaMatch validates a match outside every captured generation's
// state space: a live-ingest delta match. Its states belong to a
// sub-model the server does not expose, so the check is structural: one
// ingested video, and served labels that satisfy a branch.
func (c *checker) checkDeltaMatch(r *request, mj *api.MatchJSON) error {
	if c.fresh == nil {
		return fmt.Errorf("%q match rank %d: states %v outside the model", r.pattern, mj.Rank, mj.States)
	}
	for j := range mj.States {
		if !c.fresh(videomodel.VideoID(mj.Videos[j])) || mj.Videos[j] != mj.Videos[0] {
			return fmt.Errorf("%q match rank %d: delta match over videos %v", r.pattern, mj.Rank, mj.Videos)
		}
		if j > 0 && mj.States[j] <= mj.States[j-1] {
			return fmt.Errorf("%q match rank %d: delta states %v not increasing", r.pattern, mj.Rank, mj.States)
		}
	}
	for _, br := range r.branches {
		if len(br) != len(mj.States) {
			continue
		}
		ok := true
		for j, st := range br {
			var evs []videomodel.Event
			for _, name := range mj.Events[j] {
				e, err := c.d.ParseEvent(name)
				if err != nil {
					return fmt.Errorf("%q: unknown event %q", r.pattern, name)
				}
				evs = append(evs, e)
			}
			ok = ok && (r.similar || hasAll(evs, st.events)) && !hasAny(evs, st.not)
		}
		if ok {
			return nil
		}
	}
	return fmt.Errorf("%q match rank %d: delta labels %v fit no branch", r.pattern, mj.Rank, mj.Events)
}

// checkExhaustive compares a one-step response with the exhaustive
// ranking under the engine's per-video cap.
func (c *checker) checkExhaustive(m *hmmm.Model, r *request, resp *api.QueryResponse, topK int) error {
	var want []ranked
	if c.pruned {
		only := make(map[int]bool)
		for _, mj := range resp.Matches {
			only[m.States[mj.States[0]].VideoIdx] = true
		}
		want = exhaustive(m, c.gt, r.branches[0][0], r.scope, r.similar, refBeam, topK, only)
	} else {
		want = c.expect(m, r, topK)
	}
	if len(want) != len(resp.Matches) {
		return fmt.Errorf("%q: %d matches, exhaustive ranking has %d", r.pattern, len(resp.Matches), len(want))
	}
	cutoff := 0.0
	if len(want) > 0 {
		cutoff = want[len(want)-1].score
	}
	for i, w := range want {
		got := resp.Matches[i]
		if !scoreEqual(got.Score, w.score) {
			return fmt.Errorf("%q: rank %d scores %.17g, exhaustive %.17g", r.pattern, i+1, got.Score, w.score)
		}
		// Equal scores may order differently only at the cut-off tie.
		if got.States[0] != w.state && !scoreEqual(w.score, cutoff) {
			return fmt.Errorf("%q: rank %d is state %d, exhaustive state %d", r.pattern, i+1, got.States[0], w.state)
		}
	}
	return nil
}

func (c *checker) expect(m *hmmm.Model, r *request, topK int) []ranked {
	k := expectKey{m, r}
	c.mu.Lock()
	want, ok := c.expected[k]
	c.mu.Unlock()
	if ok {
		return want
	}
	want = exhaustive(m, c.gt, r.branches[0][0], r.scope, r.similar, refBeam, topK, nil)
	c.mu.Lock()
	c.expected[k] = want
	c.mu.Unlock()
	return want
}

// recall is the overlap of a served one-step ranking with the uncapped
// exhaustive top-10 under model m.
func (c *checker) recall(m *hmmm.Model, r *request, resp *api.QueryResponse) (float64, bool) {
	want := exhaustive(m, c.gt, r.branches[0][0], r.scope, r.similar, 0, refTopK, nil)
	if len(want) == 0 {
		return 0, false
	}
	served := make(map[int]bool)
	for i, mj := range resp.Matches {
		if i < refTopK {
			served[mj.States[0]] = true
		}
	}
	hit := 0
	for _, w := range want {
		if served[w.state] {
			hit++
		}
	}
	return float64(hit) / float64(len(want)), true
}

// fedMember is one federation member as the checks see it.
type fedMember struct {
	name   string
	offset int
	check  *checker
	model  *hmmm.Model
}

// checkFed validates a federated response: skipped members contribute
// nothing, each match is an instance of the pattern in its member's
// archive with the member's recomputed score (divided by the member's
// best score when the merge normalizes), and the ranking is sorted.
func checkFed(members []fedMember, r *request, resp *api.FederatedQueryResponse) error {
	if len(resp.Matches) > r.topK {
		return fmt.Errorf("fed %q: %d matches, top_k %d", r.pattern, len(resp.Matches), r.topK)
	}
	reports := make(map[string]api.FederatedMemberJSON)
	ran := 0
	for _, mr := range resp.Members {
		reports[mr.Name] = mr
		if !mr.Skipped {
			ran++
		}
	}
	if resp.Normalized != (ran >= 2) {
		return fmt.Errorf("fed %q: normalized=%v with %d members run", r.pattern, resp.Normalized, ran)
	}
	for i, fm := range resp.Matches {
		if i > 0 && fm.Score > resp.Matches[i-1].Score {
			return fmt.Errorf("fed %q: rank %d out of order", r.pattern, i+1)
		}
		rep, ok := reports[fm.Member]
		if !ok || rep.Skipped {
			return fmt.Errorf("fed %q: rank %d from skipped or unknown member %q", r.pattern, i+1, fm.Member)
		}
		var mem *fedMember
		for k := range members {
			if members[k].name == fm.Member {
				mem = &members[k]
			}
		}
		if mem == nil {
			return fmt.Errorf("fed %q: unknown member %q", r.pattern, fm.Member)
		}
		local := make([]int, len(fm.States))
		for j, s := range fm.States {
			local[j] = s - mem.offset
		}
		raw := fm.Score
		if resp.Normalized {
			if fm.Score > 1+scoreRelTol {
				return fmt.Errorf("fed %q: normalized score %g above 1", r.pattern, fm.Score)
			}
			raw = fm.Score * rep.MaxScore
		}
		mj := api.MatchJSON{Rank: i + 1, Score: raw, States: local, Shots: fm.Shots, Videos: fm.Videos, Events: make([][]string, len(local))}
		if _, err := mem.check.checkMatch(mem.model, r, &mj); err != nil {
			return fmt.Errorf("fed member %s: %w", fm.Member, err)
		}
	}
	return nil
}
