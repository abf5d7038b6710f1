#include "chase/solve.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <utility>

#include "chase/engine.h"
#include "chase/report.h"

namespace wqe {

namespace {

std::string Lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

Response Rejected(const Request& req, Status s) {
  Response resp;
  resp.algorithm = req.algorithm;
  resp.id = req.id;
  resp.result.status = s;
  resp.status = std::move(s);
  return resp;
}

}  // namespace

const char* AlgorithmName(Algorithm algo) {
  switch (algo) {
    case Algorithm::kAnsW:
      return "AnsW";
    case Algorithm::kAnsWE:
      return "AnsWE";
    case Algorithm::kAnsHeu:
      return "AnsHeu";
    case Algorithm::kFMAnsW:
      return "FMAnsW";
    case Algorithm::kApxWhyM:
      return "ApxWhyM";
  }
  return "unknown";
}

std::optional<Algorithm> AlgorithmFromString(std::string_view name) {
  const std::string s = Lower(name);
  if (s == "answ") return Algorithm::kAnsW;
  if (s == "answe" || s == "whye") return Algorithm::kAnsWE;
  if (s == "ansheu" || s == "heu") return Algorithm::kAnsHeu;
  if (s == "fmansw" || s == "fm") return Algorithm::kFMAnsW;
  if (s == "apxwhym" || s == "whym") return Algorithm::kApxWhyM;
  return std::nullopt;
}

Response ExecuteWithContext(ChaseContext& ctx, Algorithm algo,
                            bool collect_report) {
  Response resp;
  resp.algorithm = algo;
  if (Status s = ctx.options().Validate(); !s.ok()) {
    resp.result.status = s;
    resp.status = std::move(s);
    return resp;
  }
  // Counters snapshotted before the run so the report carries this solve's
  // deltas, not the scope's lifetime totals (contexts may be reused).
  const ChaseReport::CounterSnapshot before =
      collect_report ? ChaseReport::SnapshotCounters(ctx)
                     : ChaseReport::CounterSnapshot();
  // All instrumentation (solve span, deadline arming, metric mirroring,
  // query-log provenance) lives in the engine dispatcher, once for every
  // algorithm.
  resp.result = engine::RunAlgorithm(ctx, algo);
  resp.status = resp.result.status;
  if (collect_report) {
    resp.report =
        ChaseReport::BuildQueryLogRecord(ctx, resp.result, algo, before);
  }
  return resp;
}

Response Execute(const Graph& g, GraphIndexes* indexes, ViewCache* shared_cache,
                 Matcher::SharedPlans* shared_plans, const Request& req) {
  // Reject bad options before paying for index construction.
  if (Status s = req.options.Validate(); !s.ok()) {
    return Rejected(req, std::move(s));
  }
  ChaseContext ctx(g, indexes, shared_cache, shared_plans, req.question,
                   req.options);
  Response resp = ExecuteWithContext(ctx, req.algorithm, req.collect_report);
  resp.id = req.id;
  return resp;
}

Response Execute(const Graph& g, const Request& req) {
  return Execute(g, nullptr, nullptr, nullptr, req);
}

}  // namespace wqe
