package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/coord"
	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/fed"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/ingest"
	"github.com/videodb/hmmm/internal/live"
	"github.com/videodb/hmmm/internal/mining"
	"github.com/videodb/hmmm/internal/obs"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/rpc"
	"github.com/videodb/hmmm/internal/server"
	"github.com/videodb/hmmm/internal/shard"
	"github.com/videodb/hmmm/internal/shotdetect"
	"github.com/videodb/hmmm/internal/store"
	"github.com/videodb/hmmm/internal/synthvideo"
	"github.com/videodb/hmmm/internal/videomodel"
)

// The boot paths below follow cmd/hmmmd and cmd/hmmm-shardd flag for
// flag at their defaults; a commented value is the flag it stands for.
const (
	defaultRetrain      = 10               // -retrain
	defaultQueryTimeout = 10 * time.Second // -query-timeout
	defaultMaxInflight  = 64               // -max-inflight
	defaultFastLaneCost = 1000             // -fast-lane-cost
	defaultCompactAfter = 8                // -compact-after
	archiveCoarse       = 16               // -coarse-candidates of make bench-million at 100x
	archiveShards       = 2                // shard servers, one replica each
)

var serveOpts = retrieval.Options{Beam: 4, TopK: 10}

// fedDomains is the -domains federation every workload serves beside its
// archive.
var fedDomains = []string{"soccer", "basketball", "news"}

// corpus is a generated archive and the features of its annotated shots.
type corpus struct {
	domain  *videomodel.Domain
	archive *videomodel.Archive
	feats   map[videomodel.ShotID][]float64
}

// inputs is everything a workload generates before set-up starts; none
// of it is timed.
type inputs struct {
	main corpus
	fed  []corpus
}

func paperCorpus(seed uint64) (corpus, error) {
	c, err := dataset.Build(dataset.PaperScale(seed))
	if err != nil {
		return corpus{}, fmt.Errorf("paper-scale corpus: %w", err)
	}
	return corpus{domain: videomodel.Soccer(), archive: c.Archive, feats: c.Features}, nil
}

func archiveCorpus(seed uint64) (corpus, error) {
	a, f, err := synthvideo.GenerateArchive(synthvideo.ScaledArchive(seed, 100))
	if err != nil {
		return corpus{}, fmt.Errorf("100x archive: %w", err)
	}
	return corpus{domain: videomodel.Soccer(), archive: a, feats: f}, nil
}

// fedCorpora generates the federation's archives as hmmmd -seed seed
// -domains does: paper-sized, member i seeded with seed+i.
func fedCorpora(seed uint64) ([]corpus, error) {
	var out []corpus
	for i, name := range fedDomains {
		d, _ := videomodel.DomainByName(name)
		a, f, err := synthvideo.GenerateArchive(synthvideo.ArchiveConfig{
			Seed: seed + uint64(i), Videos: 54, Shots: 11567, Annotated: 506, Domain: d,
		})
		if err != nil {
			return nil, fmt.Errorf("%s archive: %w", name, err)
		}
		out = append(out, corpus{domain: d, archive: a, feats: f})
	}
	return out, nil
}

// system is one booted deployment: the HTTP server and whatever sits
// behind it.
type system struct {
	srv   *server.Server
	hs    *http.Server
	url   string
	model *hmmm.Model // the model the HTTP server booted with

	federation *fed.Federation
	fedMembers []fedMember // filled by the workload (needs ground truth)
	fedModels  []*hmmm.Model

	coordinator *coord.Coordinator
	shardSrvs   []*rpc.Server
	shardSvcs   []*rpc.ShardService
	shardAddrs  []string
	snapPath    string // compact model snapshot (archive-coord)

	pipeline *ingest.Pipeline
	dir      string // on-disk state of this boot
	live     bool
}

func (s *system) close() {
	if s.hs != nil {
		s.hs.Close()
	}
	if s.coordinator != nil {
		s.coordinator.Close()
	}
	for _, rs := range s.shardSrvs {
		rs.Close()
	}
	if s.live && s.srv != nil {
		// A compaction started by the last accept may still be running;
		// CompactNow waits for it, so nothing writes to dir afterwards.
		_ = s.srv.CompactNow()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

func buildOpts() hmmm.BuildOptions {
	return hmmm.BuildOptions{LearnP12: true, Domain: videomodel.Soccer()}
}

// buildFederation builds one model and engine per domain archive, with
// the server's engine options as hmmmd does.
func buildFederation(cs []corpus, opts retrieval.Options) (*fed.Federation, []*hmmm.Model, error) {
	var members []fed.Member
	var models []*hmmm.Model
	for _, c := range cs {
		m, err := hmmm.Build(c.archive, c.feats, hmmm.BuildOptions{LearnP12: true, Domain: c.domain})
		if err != nil {
			return nil, nil, fmt.Errorf("federation %s model: %w", c.domain.Name, err)
		}
		engine, err := retrieval.NewEngine(m, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("federation %s engine: %w", c.domain.Name, err)
		}
		members = append(members, fed.Member{Name: c.domain.Name, Domain: c.domain, States: m.NumStates(), Retriever: engine})
		models = append(models, m)
	}
	f, err := fed.New(members, fed.Options{TopK: 10})
	return f, models, err
}

// listen serves the HTTP handler on a loopback port and waits until a
// first query is answered: the end of set-up.
func (s *system) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go s.hs.Serve(ln)
	s.url = "http://" + ln.Addr().String()
	resp, err := http.Post(s.url+"/api/query", "application/json", strings.NewReader(`{"pattern":"goal"}`))
	if err != nil {
		return fmt.Errorf("first query: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("first query: HTTP %d", resp.StatusCode)
	}
	return nil
}

func newServer(cfg server.Config) (*server.Server, error) {
	cfg.RetrainThreshold = defaultRetrain
	cfg.QueryTimeout = defaultQueryTimeout
	cfg.MaxInflight = defaultMaxInflight
	cfg.Coalesce = true
	cfg.FastLaneCost = defaultFastLaneCost
	cfg.HeavyQueue = server.DefaultHeavyQueue
	cfg.MaxRequestBytes = server.DefaultMaxRequestBytes
	cfg.Registry = obs.NewRegistry()
	cfg.Logf = func(string, ...any) {}
	return server.New(cfg)
}

// bootPaper boots hmmmd in generated-corpus mode with -domains, and with
// -ingest -ingest-log -ingest-snapshot when withLive is set.
func bootPaper(in *inputs, dir string, withLive bool) (*system, error) {
	sys := &system{dir: dir, live: withLive}
	model, err := hmmm.Build(in.main.archive, in.main.feats, buildOpts())
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	sys.model = model
	var liveCfg *live.Config
	if withLive {
		tree, err := ingest.TrainClassifier(1, 12, mining.Config{})
		if err != nil {
			return nil, fmt.Errorf("ingest classifier: %w", err)
		}
		sys.pipeline, err = ingest.NewPipeline(shotdetect.DefaultConfig(), tree, 0.5)
		if err != nil {
			return nil, fmt.Errorf("ingest pipeline: %w", err)
		}
		liveCfg = &live.Config{
			LogPath:      filepath.Join(dir, "ingest.log"),
			SnapshotPath: filepath.Join(dir, "ingest.snap"),
			Archive:      in.main.archive,
			Features:     in.main.feats,
			Pipeline:     sys.pipeline,
			Build:        buildOpts(),
			CompactAfter: defaultCompactAfter,
		}
	}
	if sys.federation, sys.fedModels, err = buildFederation(in.fed, serveOpts); err != nil {
		return nil, err
	}
	sys.srv, err = newServer(server.Config{Model: model, Options: serveOpts, Live: liveCfg, Federation: sys.federation})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return sys, sys.listen()
}

// shardd boots one hmmm-shardd -model path -shard i -of n.
func shardd(path string, i, n int) (*rpc.Server, *rpc.ShardService, string, error) {
	model, _, err := store.LoadModelRecover(path)
	if err != nil {
		return nil, nil, "", fmt.Errorf("shard %d: loading model: %w", i, err)
	}
	shards, err := shard.Split(model, n)
	if err != nil {
		return nil, nil, "", fmt.Errorf("shard %d: split: %w", i, err)
	}
	if len(shards) != n {
		return nil, nil, "", fmt.Errorf("shard %d: archive splits into %d shards, not %d", i, len(shards), n)
	}
	opts := serveOpts
	opts.CoarseCandidates = archiveCoarse
	svc, err := rpc.NewShardService(shards[i], i, n, opts, 1)
	if err != nil {
		return nil, nil, "", fmt.Errorf("shard %d: service: %w", i, err)
	}
	rs := rpc.NewServer(svc, func(string, ...any) {})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, "", fmt.Errorf("shard %d: listen: %w", i, err)
	}
	go rs.Serve(ln)
	return rs, svc, ln.Addr().String(), nil
}

// bootArchive builds the 100x model, writes it as a compact snapshot,
// boots the shard servers on it, and boots hmmmd -model -coord in front.
func bootArchive(in *inputs, dir string) (*system, error) {
	sys := &system{dir: dir, snapPath: filepath.Join(dir, "archive.snap")}
	model, err := hmmm.Build(in.main.archive, in.main.feats, buildOpts())
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	if err := store.SaveModelCompact(sys.snapPath, model); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	model = nil
	for i := 0; i < archiveShards; i++ {
		rs, svc, addr, err := shardd(sys.snapPath, i, archiveShards)
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.shardSrvs = append(sys.shardSrvs, rs)
		sys.shardSvcs = append(sys.shardSvcs, svc)
		sys.shardAddrs = append(sys.shardAddrs, addr)
	}
	if sys.model, _, err = store.LoadModelRecover(sys.snapPath); err != nil {
		sys.close()
		return nil, fmt.Errorf("coordinator model: %w", err)
	}
	opts := serveOpts
	opts.CoarseCandidates = archiveCoarse
	sys.coordinator, err = coord.Dial(strings.Join(sys.shardAddrs, ";"), 2*time.Second,
		coord.Options{Seed: 1}, opts)
	if err != nil {
		sys.close()
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = sys.coordinator.WaitReady(ctx)
	cancel()
	if err != nil {
		sys.close()
		return nil, fmt.Errorf("waiting for shards: %w", err)
	}
	if sys.federation, sys.fedModels, err = buildFederation(in.fed, opts); err != nil {
		sys.close()
		return nil, err
	}
	sys.srv, err = newServer(server.Config{Model: sys.model, Options: opts, Coordinator: sys.coordinator, Federation: sys.federation})
	if err != nil {
		sys.close()
		return nil, fmt.Errorf("server: %w", err)
	}
	if err := sys.listen(); err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

// stats fetches /api/stats.
func (s *system) stats() (*api.StatsResponse, error) {
	resp, err := http.Get(s.url + "/api/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errors.New(resp.Status)
	}
	var st api.StatsResponse
	return &st, decodeBody(resp.Body, &st)
}
