package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/videomodel"
)

// The benchmark writes its own queries: a pattern is generated as a
// small structure, rendered to MATN text for the program, and expanded
// into linear branches by the benchmark itself, so the checks never rely
// on the program's compiler to say what a pattern means.

// step is one position of a linear branch.
type step struct {
	events []videomodel.Event // all must annotate the shot
	not    []videomodel.Event // none may annotate the shot
	minGap int                // ms from the previous step's shot; 0 = none
	maxGap int
}

// branch is one linear pattern an MATN expands to.
type branch []step

type atom struct {
	ev  videomodel.Event
	neg bool
}

// patStep is one MATN step: alternatives of conjunctions, optionally
// skippable, with an optional gap bound on the arrow into it.
type patStep struct {
	alts     [][]atom
	optional bool
	minGap   int
	maxGap   int
}

type pattern []patStep

// text renders the pattern in the MATN grammar.
func (p pattern) text(d *videomodel.Domain) string {
	var b strings.Builder
	for i, ps := range p {
		if i > 0 {
			b.WriteString(" ->")
			switch {
			case ps.minGap > 0 && ps.maxGap > 0:
				fmt.Fprintf(&b, "[%dms..%dms]", ps.minGap, ps.maxGap)
			case ps.maxGap > 0:
				fmt.Fprintf(&b, "[<%dms]", ps.maxGap)
			case ps.minGap > 0:
				fmt.Fprintf(&b, "[>%dms]", ps.minGap)
			}
			b.WriteString(" ")
		}
		for j, alt := range ps.alts {
			if j > 0 {
				b.WriteString(" | ")
			}
			for k, a := range alt {
				if k > 0 {
					b.WriteString(" & ")
				}
				if a.neg {
					b.WriteString("!")
				}
				b.WriteString(d.EventName(a.ev))
			}
		}
		if ps.optional {
			b.WriteString("?")
		}
	}
	return b.String()
}

// expand lists the linear branches of the pattern: the product of every
// step's alternatives, with each optional step either taken or dropped.
func (p pattern) expand() []branch {
	out := []branch{nil}
	for _, ps := range p {
		var choices []*step
		for _, alt := range ps.alts {
			st := &step{minGap: ps.minGap, maxGap: ps.maxGap}
			for _, a := range alt {
				if a.neg {
					st.not = append(st.not, a.ev)
				} else {
					st.events = append(st.events, a.ev)
				}
			}
			choices = append(choices, st)
		}
		if ps.optional {
			choices = append(choices, nil)
		}
		var next []branch
		for _, br := range out {
			for _, c := range choices {
				nb := append(branch(nil), br...)
				if c != nil {
					nb = append(nb, *c)
				}
				next = append(next, nb)
			}
		}
		out = next
	}
	var kept []branch
	for _, br := range out {
		if len(br) > 0 {
			kept = append(kept, br)
		}
	}
	return kept
}

// opKind is an operation type of the workload; each has its own
// attempted and failed counts.
type opKind int

const (
	opQuery opKind = iota
	opFed
	opFeedback
	opIngest
	numOps
)

var opNames = [numOps]string{"query", "federated", "feedback", "ingest"}

// scope mirrors a request's scope fields.
type scope struct {
	video  videomodel.VideoID
	fromMS int
	toMS   int
}

func (s *scope) contains(startMS int) bool {
	if s == nil {
		return true
	}
	return startMS >= s.fromMS && (s.toMS == 0 || startMS < s.toMS)
}

// request is one prepared operation: its wire body plus what the checks
// need to know about it.
type request struct {
	kind opKind
	path string
	body []byte

	pattern  string
	branches []branch
	topK     int
	similar  bool
	scope    *scope
	domains  []string // federated member filter (nil = all)

	states []int // feedback marks
}

// single reports whether the request is a one-branch one-step query: the
// form the exhaustive ranker checks exactly.
func (r *request) single() bool {
	return r.kind == opQuery && len(r.branches) == 1 && len(r.branches[0]) == 1
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func newQueryRequest(p pattern, d *videomodel.Domain, topK int, similar bool, sc *scope) *request {
	r := &request{
		kind: opQuery, path: "/api/query",
		pattern: p.text(d), branches: p.expand(), topK: topK, similar: similar, scope: sc,
	}
	qr := api.QueryRequest{Pattern: r.pattern, TopK: topK, SimilarShots: similar}
	if sc != nil {
		qr.ScopeVideo, qr.ScopeFromMS, qr.ScopeToMS = int(sc.video), sc.fromMS, sc.toMS
	}
	r.body = mustJSON(qr)
	return r
}

func newFedRequest(p pattern, d *videomodel.Domain, members []string) *request {
	// hmmmd builds the member engines without AnnotatedOnly, so a
	// federated query takes the similarity fallback where a video has no
	// annotated candidate; the checks apply that candidate rule.
	r := &request{
		kind: opFed, path: "/api/query/federated",
		pattern: p.text(d), branches: p.expand(), topK: 10, domains: members, similar: true,
	}
	r.body = mustJSON(api.FederatedQueryRequest{Pattern: r.pattern, Domains: members})
	return r
}

// gen draws the benchmark's inputs from one seeded stream.
type gen struct {
	rng *rand.Rand
	d   *videomodel.Domain
	gt  *groundTruth
}

func newGen(seed uint64, stream uint64, d *videomodel.Domain, gt *groundTruth) *gen {
	return &gen{rng: rand.New(rand.NewPCG(seed, stream)), d: d, gt: gt}
}

// event draws an event weighted by how often the corpus annotates it, so
// generated patterns usually have matches.
func (g *gen) event() videomodel.Event {
	return g.gt.weighted[g.rng.IntN(len(g.gt.weighted))]
}

func (g *gen) eventNot(excl ...videomodel.Event) videomodel.Event {
	for {
		e := g.event()
		ok := true
		for _, x := range excl {
			ok = ok && e != x
		}
		if ok {
			return e
		}
	}
}

func one(e videomodel.Event) patStep { return patStep{alts: [][]atom{{{ev: e}}}} }

// linear draws a pattern of n single-event steps.
func (g *gen) linear(n int) pattern {
	p := make(pattern, n)
	for i := range p {
		p[i] = one(g.event())
	}
	return p
}

// matnForms are the MATN shapes the paper-scale traffic covers.
var matnForms = []string{"single", "seq", "seq3", "conj", "alt", "optional", "negation", "gap"}

// form draws a pattern of the named MATN shape.
func (g *gen) form(name string) pattern {
	switch name {
	case "single":
		return g.linear(1)
	case "seq":
		return g.linear(2)
	case "seq3":
		return g.linear(3)
	case "conj":
		a := g.event()
		return pattern{{alts: [][]atom{{{ev: a}, {ev: g.eventNot(a)}}}}}
	case "alt":
		a := g.event()
		p := pattern{{alts: [][]atom{{{ev: a}}, {{ev: g.eventNot(a)}}}}}
		if g.rng.IntN(2) == 0 {
			p = append(p, one(g.event()))
		}
		return p
	case "optional":
		return pattern{one(g.event()), {alts: [][]atom{{{ev: g.event()}}}, optional: true}, one(g.event())}
	case "negation":
		a := g.event()
		neg := patStep{alts: [][]atom{{{ev: a}, {ev: g.eventNot(a), neg: true}}}}
		if g.rng.IntN(2) == 0 {
			return pattern{neg}
		}
		return pattern{one(g.event()), neg}
	case "gap":
		next := one(g.event())
		switch g.rng.IntN(3) {
		case 0:
			next.maxGap = (30 + g.rng.IntN(120)) * 1000
		case 1:
			next.minGap = (5 + g.rng.IntN(30)) * 1000
		default:
			next.minGap = (2 + g.rng.IntN(10)) * 1000
			next.maxGap = next.minGap + (60+g.rng.IntN(240))*1000
		}
		return pattern{one(g.event()), next}
	}
	panic("unknown form " + name)
}

// scoped draws a scope: a single video, or a start-time window.
func (g *gen) scoped() *scope {
	if g.rng.IntN(2) == 0 {
		return &scope{video: g.gt.videos[g.rng.IntN(len(g.gt.videos))]}
	}
	from := g.rng.IntN(g.gt.maxStartMS / 2)
	return &scope{fromMS: from, toMS: from + g.gt.maxStartMS/3}
}

// feedbackMarks draws n state sequences to mark positive: two or three
// states of one video in temporal order, as a user marking a retrieved
// pattern would send.
func (g *gen) feedbackMarks(n int, videoStates [][2]int) [][]int {
	var out [][]int
	for len(out) < n {
		v := videoStates[g.rng.IntN(len(videoStates))]
		lo, hi := v[0], v[1]
		k := 2 + g.rng.IntN(2)
		if hi-lo < k {
			continue
		}
		first := lo + g.rng.IntN(hi-lo-k+1)
		seq := []int{first}
		for len(seq) < k {
			last := seq[len(seq)-1]
			seq = append(seq, last+1+g.rng.IntN(min(3, hi-last-(k-len(seq)))))
		}
		out = append(out, seq)
	}
	return out
}

// ingestClasses are the shot timelines offered to POST /api/ingest: each
// is built from classes the ingest classifier labels reliably, so every
// offered video yields annotated shots.
var ingestClasses = [][]string{
	{"goal", "goal_kick", "yellow_card"},
	{"goal", "corner_kick", "goal_kick"},
	{"yellow_card", "goal", "goal_kick", "goal"},
	{"goal_kick", "yellow_card", "goal"},
}

func ingestRequest(seed uint64, i int) *request {
	body := mustJSON(api.IngestRequest{
		Name:   fmt.Sprintf("bench-%d-%d", seed, i),
		Seed:   seed*1000 + uint64(i) + 1,
		Events: ingestClasses[i%len(ingestClasses)],
		ShotMS: 3000,
	})
	return &request{kind: opIngest, path: "/api/ingest", body: body}
}

// op is one scheduled operation of an open-loop phase.
type op struct {
	due time.Duration
	req *request
}

// smooth spreads n arrivals evenly over d with a seeded jitter of up to
// a quarter of the spacing: arrivals stay regular enough that queueing
// comes from the server, not from clumps the generator made.
func (g *gen) smooth(n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	if n == 0 {
		return out
	}
	gap := d / time.Duration(n)
	for i := range out {
		jit := time.Duration((g.rng.Float64() - 0.5) * 0.5 * float64(gap))
		out[i] = time.Duration(i)*gap + gap/2 + jit
	}
	return out
}
