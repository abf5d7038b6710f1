#include "workload/suite.h"

#include <algorithm>
#include <cstdio>

#include "common/timer.h"
#include "store/artifact_store.h"
#include "store/serde.h"

namespace wqe {

ExperimentRunner::ExperimentRunner(const Graph& g, std::vector<BenchCase> cases,
                                   size_t num_threads,
                                   const std::string& cache_dir,
                                   obs::Observability* o)
    : g_(g),
      cases_(std::move(cases)),
      store_(cache_dir.empty()
                 ? nullptr
                 : std::make_unique<store::ArtifactStore>(
                       cache_dir, store::Serde::GraphFingerprint(g), o)),
      indexes_(std::make_unique<GraphIndexes>(g, num_threads)) {
  if (store_ != nullptr) {
    shared_cache_ = std::make_unique<ViewCache>();
    // The owner wires the shared cache's counters once; contexts only wire
    // their private caches (see ChaseContext), so per-case scopes never
    // rebind a cache they share with other cases.
    shared_cache_->set_observability(o);
    store_->WarmStarViews(g_, shared_cache_.get());
  }
}

ExperimentRunner::~ExperimentRunner() {
  if (store_ != nullptr && shared_cache_ != nullptr &&
      shared_cache_->size() > 0) {
    store_->SaveStarViews(*shared_cache_, shared_cache_->options().max_entries);
  }
}

AlgoSummary ExperimentRunner::Run(const AlgoSpec& algo) const {
  AlgoSummary summary;
  summary.name = algo.name;

  for (const BenchCase& c : cases_) {
    // Timed section covers question-level setup (rep computation, initial
    // evaluation) plus the chase itself — graph-level indexes are prebuilt,
    // matching the paper's setup.
    Timer timer;
    obs::ScopedSpan question_span(obs::CurrentTracer(), "question");
    // In cache_dir mode the shared star-view cache rides through every case
    // (and run); otherwise the null pointer selects the private per-question
    // cache, the exact pre-store behavior.
    ChaseContext ctx(g_, indexes_.get(), shared_cache_.get(), c.question,
                     algo.opts);
    const ChaseResult result = ExecuteWithContext(ctx, algo.algo).result;
    CaseOutcome outcome;
    outcome.seconds = timer.ElapsedSeconds();
    if (result.found()) {
      const WhyAnswer& best = result.best();
      outcome.delta = AnswerJaccard(best.matches, c.gt_answer);
      outcome.closeness = best.closeness;
      outcome.satisfied = best.satisfies_exemplar;

      // IM reduction for Why-Many reporting: matches outside rep(ℰ, V).
      auto count_im = [&](const std::vector<NodeId>& matches) {
        size_t n = 0;
        for (NodeId v : matches) {
          if (!ctx.rep().Contains(v)) ++n;
        }
        return n;
      };
      outcome.im_before = count_im(c.q_answer);
      outcome.im_after = count_im(best.matches);
    }
    summary.seconds.Add(outcome.seconds);
    summary.delta.Add(outcome.delta);
    summary.closeness.Add(outcome.closeness);
    const double before = static_cast<double>(std::max<size_t>(outcome.im_before, 1));
    summary.im_reduction.Add(
        (static_cast<double>(outcome.im_before) -
         static_cast<double>(outcome.im_after)) /
        before);
    if (outcome.satisfied) ++summary.satisfied;
    ++summary.cases;
  }
  return summary;
}

namespace {

AlgoSpec Spec(std::string name, Algorithm algo, ChaseOptions opts) {
  AlgoSpec s;
  s.name = std::move(name);
  s.algo = algo;
  s.opts = opts;
  return s;
}

}  // namespace

AlgoSpec MakeAnsW(const ChaseOptions& base) {
  ChaseOptions o = base;
  o.use_cache = true;
  o.use_pruning = true;
  return Spec("AnsW", Algorithm::kAnsW, o);
}

AlgoSpec MakeAnsWnc(const ChaseOptions& base) {
  ChaseOptions o = base;
  o.use_cache = false;
  o.use_memo = false;
  o.use_pruning = true;
  return Spec("AnsWnc", Algorithm::kAnsW, o);
}

AlgoSpec MakeAnsWb(const ChaseOptions& base) {
  ChaseOptions o = base;
  o.use_cache = false;
  o.use_memo = false;
  o.use_pruning = false;
  // The naive baseline simulates the raw Q-Chase tree: equal rewrites
  // reached by different sequences are distinct nodes.
  o.dedup_rewrites = false;
  return Spec("AnsWb", Algorithm::kAnsW, o);
}

AlgoSpec MakeAnsHeu(const ChaseOptions& base, size_t beam) {
  ChaseOptions o = base;
  o.beam = beam;
  return Spec("AnsHeu(k=" + std::to_string(beam) + ")", Algorithm::kAnsHeu, o);
}

AlgoSpec MakeAnsHeuB(const ChaseOptions& base, size_t beam) {
  ChaseOptions o = base;
  o.beam = beam;
  o.random_ops = true;
  return Spec("AnsHeuB(k=" + std::to_string(beam) + ")", Algorithm::kAnsHeu, o);
}

AlgoSpec MakeFMAnsW(const ChaseOptions& base) {
  return Spec("FMAnsW", Algorithm::kFMAnsW, base);
}

AlgoSpec MakeApxWhyM(const ChaseOptions& base) {
  return Spec("ApxWhyM", Algorithm::kApxWhyM, base);
}

AlgoSpec MakeAnsWE(const ChaseOptions& base) {
  return Spec("AnsWE", Algorithm::kAnsWE, base);
}

std::vector<AlgoSpec> StandardAlgos(const ChaseOptions& base) {
  return {MakeAnsHeu(base, base.beam == 0 ? 2 : base.beam), MakeAnsW(base),
          MakeAnsWnc(base), MakeAnsWb(base), MakeFMAnsW(base)};
}

void PrintRow(const std::string& bench, const std::string& series,
              const std::string& x, const AlgoSummary& s) {
  std::printf(
      "%s,%s,%s,time_s=%.4f,delta=%.3f,closeness=%.4f,im_reduction=%.3f,"
      "satisfied=%zu/%zu\n",
      bench.c_str(), series.c_str(), x.c_str(), s.seconds.Mean(),
      s.delta.Mean(), s.closeness.Mean(), s.im_reduction.Mean(), s.satisfied,
      s.cases);
  std::fflush(stdout);
}

}  // namespace wqe
