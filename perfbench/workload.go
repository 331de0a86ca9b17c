package main

import (
	"sort"
	"time"
)

// spec is one workload: how its inputs are made, how the program boots,
// and what traffic it is offered.
type spec struct {
	name      string
	setupReps int
	inputs    func() (*inputs, error)
	boot      func(in *inputs, dir string) (*system, error)
	// queries draws the fixed /api/query list the closed loop cycles and
	// the open loop draws from; hot is the burst list (may be empty).
	queries func(g *gen) (list, hot []*request)
	// unique makes the open loop walk the query list in order instead of
	// drawing from it, so a pattern comes round again only after the
	// whole list, never close enough to coalesce with itself.
	unique bool
	// Open-loop offered rates, per second. They are fixed, well below the
	// saturation the closed loop measures on a 2-CPU host, so latency
	// reflects service and contention rather than an overflowing queue.
	queryRate    float64
	fedRate      float64
	feedbackRate float64
	ingestRate   float64
	burstRate    float64 // bursts of one hot pattern per second
	burstSize    int
	pruned       bool // coarse prefilter on: exhaustive checks restrict to served videos
}

// closedShare is the part of the measured time the closed loop gets; the
// open loop gets the rest.
const closedShare = 0.3

// The archives are fixed inputs, like the paper's one corpus: hmmmd's
// default -seed 1 at paper scale and the -seed 2006 archive of make
// bench-million at 100x. The run's --seed varies the traffic, so the
// spread between seeds is the spread of the traffic, not of the corpus.
const (
	paperSeed   = 1
	archiveSeed = 2006
)

var workloads = []spec{
	{
		name:      "paper-serve",
		setupReps: 50,
		inputs:    func() (*inputs, error) { return withFed(paperCorpus(paperSeed)) },
		boot:      func(in *inputs, dir string) (*system, error) { return bootPaper(in, dir, false) },
		queries:   paperQueries(true),
		queryRate: 150, fedRate: 20,
		burstRate: 2, burstSize: 4,
	},
	{
		name:      "archive-coord",
		setupReps: 5,
		inputs:    func() (*inputs, error) { return withFed(archiveCorpus(archiveSeed)) },
		boot:      bootArchive,
		queries:   archiveQueries,
		unique:    true,
		queryRate: 80, fedRate: 30,
		pruned: true,
	},
	{
		name:      "live-rw",
		setupReps: 5,
		inputs:    func() (*inputs, error) { return withFed(paperCorpus(paperSeed)) },
		boot:      func(in *inputs, dir string) (*system, error) { return bootPaper(in, dir, true) },
		queries:   paperQueries(false),
		queryRate: 100, fedRate: 20, feedbackRate: 20, ingestRate: 2,
	},
}

func withFed(main corpus, err error) (*inputs, error) {
	if err != nil {
		return nil, err
	}
	fc, err := fedCorpora(paperSeed)
	if err != nil {
		return nil, err
	}
	return &inputs{main: main, fed: fc}, nil
}

// paperQueries is the paper-scale mix, in fixed proportions so every seed
// offers the same shape of work: each MATN form equally, scoped requests
// (which cannot coalesce), and, with heavy set, similar_shots requests
// whose estimated cost sends them to the heavy lane plus a few hot
// patterns for coalescable bursts. A quarter of the unscoped requests ask
// for top_k 5.
func paperQueries(heavy bool) func(g *gen) ([]*request, []*request) {
	return func(g *gen) ([]*request, []*request) {
		var list, hot []*request
		for i := 0; i < 40; i++ {
			for j, form := range matnForms {
				topK := 0
				if (i+j)%4 == 0 {
					topK = 5
				}
				list = append(list, newQueryRequest(g.form(form), g.d, topK, false, nil))
			}
			p := g.form([]string{"single", "seq"}[i%2])
			list = append(list, newQueryRequest(p, g.d, 0, false, g.scoped()))
			if heavy && i%2 == 0 {
				list = append(list, newQueryRequest(g.linear(1+i/2%2), g.d, 0, true, nil))
			}
		}
		g.rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		if heavy {
			for i := 0; i < 4; i++ {
				hot = append(hot, newQueryRequest(g.linear(1+i%2), g.d, 0, false, nil))
			}
		}
		return list, hot
	}
}

// archiveQueries lists every linear pattern of one to three steps over
// the vocabulary once, in a seeded order; the loops cycle through it.
func archiveQueries(g *gen) ([]*request, []*request) {
	evs := g.d.AllEvents()
	var list []*request
	var walk func(p pattern)
	walk = func(p pattern) {
		if len(p) > 0 {
			list = append(list, newQueryRequest(p, g.d, 0, false, nil))
		}
		if len(p) == 3 {
			return
		}
		for _, e := range evs {
			walk(append(append(pattern(nil), p...), one(e)))
		}
	}
	walk(nil)
	g.rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	return list, nil
}

// fedQueries draws federated requests in blocks that each hold every
// domain and every form once, so each seed offers the same shape of work
// and the open loop, walking the list in order, keeps that shape at any
// run length. Each pattern comes from one domain's vocabulary, so the
// other members skip it; a third name an explicit member filter that
// still includes the owning domain.
func fedQueries(g []*gen, blocks int, pick *gen) []*request {
	forms := []string{"single", "seq", "conj", "negation"}
	var out []*request
	for b := 0; b < blocks; b++ {
		var block []*request
		for k := range g {
			for f, form := range forms {
				var members []string
				if (b+k+f)%3 == 0 {
					members = []string{fedDomains[k], fedDomains[(k+1)%len(fedDomains)]}
				}
				block = append(block, newFedRequest(g[k].form(form), g[k].d, members))
			}
		}
		pick.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out
}

// schedule lays out the open loop over dur: smooth arrivals of each
// operation type at its fixed rate, requests drawn from the prepared
// lists.
func (s *spec) schedule(g *gen, dur time.Duration, list, hot, fedList, feedback []*request, seed uint64) []op {
	var out []op
	count := func(rate float64) int { return int(rate * dur.Seconds()) }
	for i, due := range g.smooth(count(s.queryRate), dur) {
		r := list[g.rng.IntN(len(list))]
		if s.unique {
			r = list[i%len(list)]
		}
		out = append(out, op{due, r})
	}
	if len(hot) > 0 {
		for _, due := range g.smooth(count(s.burstRate), dur) {
			r := hot[g.rng.IntN(len(hot))]
			for k := 0; k < s.burstSize; k++ {
				out = append(out, op{due, r})
			}
		}
	}
	for i, due := range g.smooth(count(s.fedRate), dur) {
		out = append(out, op{due, fedList[i%len(fedList)]})
	}
	for i, due := range g.smooth(count(s.feedbackRate), dur) {
		out = append(out, op{due, feedback[i%len(feedback)]})
	}
	for i, due := range g.smooth(count(s.ingestRate), dur) {
		out = append(out, op{due, ingestRequest(seed, i)})
	}
	sortOps(out)
	return out
}

// sortOps orders by due time, stably so a burst keeps its order.
func sortOps(ops []op) {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
}

func feedbackRequests(marks [][]int) []*request {
	out := make([]*request, len(marks))
	for i, m := range marks {
		out[i] = &request{kind: opFeedback, path: "/api/feedback", states: m,
			body: mustJSON(map[string][]int{"states": m})}
	}
	return out
}

// videoRanges lists each video's global state range in a model.
func videoRanges(n int, ranges func(int) (int, int)) [][2]int {
	out := make([][2]int, n)
	for vi := range out {
		lo, hi := ranges(vi)
		out[vi] = [2]int{lo, hi}
	}
	return out
}
