#ifndef WQE_BENCH_SUITE_MANIFEST_H_
#define WQE_BENCH_SUITE_MANIFEST_H_

// The curated quick-mode suite the benchmark regression gate runs: one
// representative bench per figure family (Why efficiency, heuristic quality,
// Why-many, Why-empty), each a scaled-down fig10/fig12 configuration that
// finishes in well under a second so the gate can afford several repeats.
//
// The manifest is a header (not a library .cc) so `tools/bench_gate.cc` and
// the gate tests share the exact same bench definitions — a drifted copy in
// either place would silently gate against a different workload than the
// committed baseline measured.

#include <algorithm>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chase/eval.h"
#include "common/timer.h"
#include "gen/datasets.h"
#include "gen/synthetic.h"
#include "obs/observability.h"
#include "serve/server.h"
#include "store/artifact_store.h"
#include "store/serde.h"
#include "workload/suite.h"

namespace wqe::gate {

/// Knobs for one gate run. Quick-mode defaults (scale 0.05, 3 queries) keep
/// the four-bench suite to a few seconds per repeat on one core; the
/// committed baseline was produced with exactly these values, so overriding
/// them only makes sense together with `--write-baseline`.
struct GateBenchConfig {
  double scale = 0.05;
  size_t queries = 3;
  uint64_t seed = 1;
  size_t threads = 1;
  std::string cache_dir;
};

/// A prepared quick bench: graph + cases + runner built once, so repeats
/// measure only the solve work (the §7 protocol prebuilds indexes the same
/// way). Each bench owns a private Observability scope, so its
/// `solve.latency_ns` histogram and cache/store counters are not mixed with
/// the other suite entries'. Heap-held members keep the runner's references
/// stable across vector moves.
struct QuickBench {
  std::string name;
  std::unique_ptr<obs::Observability> obs;
  std::unique_ptr<Graph> graph;
  std::unique_ptr<ExperimentRunner> runner;
  AlgoSpec algo;
  /// Custom measurement body. When set, RunOnce() invokes it instead of the
  /// ExperimentRunner — the serve bench drives a serve::Server rather than a
  /// sequential runner, but reports through the same AlgoSummary columns.
  std::function<AlgoSummary()> run;

  AlgoSummary RunOnce() const { return run ? run() : runner->Run(algo); }
};

/// Gate mirror of bench_common.h's DefaultChase, minus the environment
/// reads: the gate's workload must not vary with WQE_* in the caller's
/// shell, or the comparison against the committed baseline is meaningless.
inline ChaseOptions GateChase(const GateBenchConfig& cfg,
                              obs::Observability* obs) {
  ChaseOptions opts;
  opts.budget = 3;
  opts.beam = 2;
  opts.max_steps = 4000;
  opts.time_limit_seconds = 5.0;
  opts.num_threads = cfg.threads;
  opts.observability = obs;
  return opts;
}

inline WhyFactoryOptions GateFactory(uint64_t seed) {
  WhyFactoryOptions opts;
  opts.query.num_edges = 3;
  opts.query.max_literals = 3;
  opts.disturb.num_ops = 3;
  opts.max_tuples = 10;
  opts.seed = seed;
  return opts;
}

/// Builds the quick suite. Names are stable identifiers — the committed
/// baseline keys on them, so renaming a bench is a re-baselining event.
inline std::vector<QuickBench> BuildQuickSuite(const GateBenchConfig& cfg) {
  std::vector<QuickBench> suite;

  using CaseMaker = std::vector<BenchCase> (*)(const Graph&, size_t,
                                               const WhyFactoryOptions&);
  auto add = [&](std::string name, GraphSpec spec, CaseMaker make_cases,
                 size_t n, const WhyFactoryOptions& factory,
                 AlgoSpec (*make_algo)(const ChaseOptions&)) {
    QuickBench b;
    b.name = std::move(name);
    b.obs = std::make_unique<obs::Observability>();
    b.graph = std::make_unique<Graph>(GenerateGraph(spec));
    b.runner = std::make_unique<ExperimentRunner>(
        *b.graph, make_cases(*b.graph, n, factory), cfg.threads, cfg.cache_dir,
        b.obs.get());
    b.algo = make_algo(GateChase(cfg, b.obs.get()));
    suite.push_back(std::move(b));
  };

  // fig10a family: exact Why answering on the IMDB-shaped graph.
  add("fig10a_quick", ImdbLike(cfg.scale), &MakeBenchCases, cfg.queries,
      GateFactory(cfg.seed), &MakeAnsW);

  // fig10c family: the beam heuristic on the heterogeneous DBpedia shape.
  add("fig10c_quick", DbpediaLike(cfg.scale), &MakeBenchCases, cfg.queries,
      GateFactory(cfg.seed),
      +[](const ChaseOptions& base) { return MakeAnsHeu(base, /*beam=*/2); });

  // fig10d family: deep chase — budget above the §7 default, the regime the
  // incremental evaluation path (DESIGN.md "Incremental evaluation") exists
  // for; gates the delta path's per-evaluation cost on refine-heavy repairs.
  {
    WhyFactoryOptions factory = GateFactory(cfg.seed);
    factory.disturb.refine_prob = 0.15;
    add("fig10d_quick", DbpediaLike(cfg.scale), &MakeBenchCases, cfg.queries,
        factory, +[](const ChaseOptions& base) {
          ChaseOptions deep = base;
          deep.budget = 5;
          return MakeAnsW(deep);
        });
  }

  // match_pipeline family: literal-heavy queries on the label-sparse IMDB
  // shape — the regime the compiled match pipeline (DESIGN.md "Match
  // pipeline") targets. Gates plan compilation, merged-walk candidate
  // probes, and the selection-vector stages on top of the solve; the
  // abl_match_pipeline bench separately pins the on/off equivalence.
  {
    WhyFactoryOptions factory = GateFactory(cfg.seed);
    factory.query.max_literals = 5;
    add("match_pipeline_quick", ImdbLike(cfg.scale), &MakeBenchCases,
        cfg.queries, factory, &MakeAnsW);
  }

  // fig12a family: Why-many — mostly-relaxing disturbances yield unexpected
  // answers for ApxWhyM to diagnose.
  {
    WhyFactoryOptions factory = GateFactory(cfg.seed);
    factory.disturb.refine_prob = 0.1;
    add("fig12a_quick", ImdbLike(cfg.scale), &MakeBenchCases, cfg.queries,
        factory, &MakeApxWhyM);
  }

  // fig12c family: Why-empty — small over-refined queries with no answers.
  {
    WhyFactoryOptions factory = GateFactory(cfg.seed);
    factory.query.num_edges = 2;
    add("fig12c_quick", DbpediaLike(cfg.scale), &MakeWhyEmptyCases,
        std::max<size_t>(cfg.queries / 2, 2), factory, &MakeAnsWE);
  }

  // serve family: sustained throughput through the concurrent serving layer —
  // the fig10a workload pushed closed-loop through serve::Server, gating
  // executor dispatch, admission control, and shared-artifact synchronization
  // on top of the solve itself. Several passes over the case set keep all
  // drainers busy; answers are byte-identical to sequential solves, so the
  // quality columns gate exactly like the other benches, and the server
  // records solve.latency_ns into the bench scope for the latency quantiles.
  {
    struct ServeState {
      std::unique_ptr<Graph> graph;
      std::vector<BenchCase> cases;
      std::unique_ptr<serve::Server> server;
      ChaseOptions opts;
    };
    QuickBench b;
    b.name = "serve_quick";
    b.obs = std::make_unique<obs::Observability>();
    auto st = std::make_shared<ServeState>();
    st->graph = std::make_unique<Graph>(GenerateGraph(ImdbLike(cfg.scale)));
    st->cases = MakeBenchCases(*st->graph, cfg.queries, GateFactory(cfg.seed));
    st->opts = GateChase(cfg, b.obs.get());
    // Deadlines are armed at admission, so queue wait under closed-loop
    // submission would burn the 5s budget on a slow machine and flip the
    // gated quality columns nondeterministically. Identity under
    // concurrency is the contract; deadline behavior is tested elsewhere.
    st->opts.time_limit_seconds = 0;
    serve::ServerOptions sopts;
    sopts.observability = b.obs.get();
    sopts.cache_dir = cfg.cache_dir;
    // Telemetry stays ON for the gated bench (ephemeral port): the
    // acceptance bar is that serving with the exposition listener, sliding
    // SLO windows, and the flight recorder live costs nothing measurable
    // against BENCH_BASELINE.json.
    sopts.telemetry_port = 0;
    st->server = std::make_unique<serve::Server>(*st->graph, sopts);
    b.run = [st] {
      constexpr size_t kPasses = 4;
      AlgoSummary s;
      s.name = "serve";
      std::vector<std::future<Response>> futures;
      futures.reserve(st->cases.size() * kPasses);
      Timer batch;
      for (size_t pass = 0; pass < kPasses; ++pass) {
        for (const BenchCase& c : st->cases) {
          Request req;
          req.question = c.question;
          req.options = st->opts;
          req.algorithm = Algorithm::kAnsW;
          futures.push_back(st->server->Submit(std::move(req)));
        }
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        const Response resp = futures[i].get();
        const BenchCase& c = st->cases[i % st->cases.size()];
        double closeness = 0, delta = 0;
        bool satisfied = false;
        if (resp.found()) {
          const WhyAnswer& best = resp.best();
          closeness = best.closeness;
          delta = AnswerJaccard(best.matches, c.gt_answer);
          satisfied = best.satisfies_exemplar;
        }
        s.closeness.Add(closeness);
        s.delta.Add(delta);
        s.im_reduction.Add(0);
        if (satisfied) ++s.satisfied;
        ++s.cases;
      }
      // Per-request share of the batch wall: the inverse of sustained QPS,
      // in the same per-case unit the sequential benches report.
      const double per_req =
          batch.ElapsedSeconds() / static_cast<double>(futures.size());
      for (size_t i = 0; i < futures.size(); ++i) s.seconds.Add(per_req);
      return s;
    };
    suite.push_back(std::move(b));
  }

  // cold_start family: store-v2 serving-state restore — each repeat opens
  // the mmap bundle fresh (full verification) and answers the fig10a
  // workload on the mapped state, so the gated wall covers attach + solve
  // and a slow open regresses min_wall_s directly. The quality columns are
  // computed against reference answers solved on the heap-built state during
  // setup and are ZEROED on any fingerprint mismatch: a parity break craters
  // closeness/satisfied far past their thresholds instead of hiding behind a
  // timing column.
  {
    namespace fs = std::filesystem;
    struct ColdState {
      std::unique_ptr<Graph> graph;
      std::vector<BenchCase> cases;
      ChaseOptions opts;
      std::string dir;
      bool own_dir = false;
      std::unique_ptr<store::ArtifactStore> store;
      std::vector<std::string> reference;
      ~ColdState() {
        if (own_dir) {
          std::error_code ec;
          fs::remove_all(dir, ec);
        }
      }
    };
    QuickBench b;
    b.name = "cold_start_quick";
    b.obs = std::make_unique<obs::Observability>();
    auto st = std::make_shared<ColdState>();
    st->graph = std::make_unique<Graph>(GenerateGraph(ImdbLike(cfg.scale)));
    st->cases = MakeBenchCases(*st->graph, cfg.queries, GateFactory(cfg.seed));
    st->opts = GateChase(cfg, b.obs.get());
    st->own_dir = cfg.cache_dir.empty();
    st->dir = st->own_dir
                  ? (fs::temp_directory_path() / "wqe_gate_cold_start").string()
                  : cfg.cache_dir + "/cold_start";
    if (st->own_dir) {
      std::error_code ec;
      fs::remove_all(st->dir, ec);
    }
    st->store = std::make_unique<store::ArtifactStore>(
        st->dir, store::Serde::GraphFingerprint(*st->graph), b.obs.get());
    {
      GraphIndexes heap(*st->graph, cfg.threads);
      st->store->SaveBundle(*st->graph, heap.adom, heap.diameter, heap.dist,
                            DistanceIndex::Options());
      st->reference.reserve(st->cases.size());
      for (const BenchCase& c : st->cases) {
        Request req;
        req.question = c.question;
        req.options = st->opts;
        const Response r =
            Execute(*st->graph, &heap, nullptr, nullptr, req);
        st->reference.push_back(r.found() ? r.best().rewrite.Fingerprint()
                                          : std::string());
      }
    }
    b.run = [st] {
      AlgoSummary s;
      s.name = "cold_start";
      std::unique_ptr<MappedServingState> mapped;
      const bool opened =
          OpenServingState(*st->store, DistanceIndex::Options(),
                           store::BundleOpenOptions(), &mapped)
              .ok();
      bool parity = opened;
      struct CaseQuality {
        double closeness = 0, delta = 0;
        bool satisfied = false;
      };
      std::vector<CaseQuality> quality(st->cases.size());
      for (size_t i = 0; i < st->cases.size() && opened; ++i) {
        const BenchCase& c = st->cases[i];
        Request req;
        req.question = c.question;
        req.options = st->opts;
        const Response resp =
            Execute(mapped->graph(), &mapped->indexes, nullptr, nullptr, req);
        const std::string fp = resp.found()
                                   ? resp.best().rewrite.Fingerprint()
                                   : std::string();
        parity = parity && fp == st->reference[i];
        if (resp.found()) {
          quality[i] = {resp.best().closeness,
                        AnswerJaccard(resp.best().matches, c.gt_answer),
                        resp.best().satisfies_exemplar};
        }
      }
      for (const CaseQuality& q : quality) {
        s.closeness.Add(parity ? q.closeness : 0.0);
        s.delta.Add(parity ? q.delta : 0.0);
        s.im_reduction.Add(0);
        if (parity && q.satisfied) ++s.satisfied;
        ++s.cases;
      }
      return s;
    };
    suite.push_back(std::move(b));
  }

  return suite;
}

}  // namespace wqe::gate

#endif  // WQE_BENCH_SUITE_MANIFEST_H_
