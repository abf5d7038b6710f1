// wqe — command-line front end for the library. Works on the text formats
// (graph / query / exemplar) so the whole Why-question workflow runs from a
// shell:
//
//   wqe gen imdb 0.1 g.graph          # synthesize a dataset stand-in
//   wqe demo .                        # write the Fig 1 example files
//   wqe stats g.graph                 # shape statistics
//   wqe match g.graph q.query         # evaluate Q(G)
//   wqe why g.graph q.query e.exemplar --budget 4 --top-k 3 --algo answ
//
// Algorithms: answ (default), heu, whym (Why-Many), whye (Why-Empty),
// fm (mining baseline) — resolved through AlgorithmFromString, so the
// canonical paper names (AnsW, AnsHeu, ApxWhyM, AnsWE, FMAnsW) work too.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "chase/differential.h"
#include "chase/report.h"
#include "chase/solve.h"
#include "chase/why_not.h"
#include "common/thread_pool.h"
#include "obs/query_log.h"
#include "obs/resource_sampler.h"
#include "exemplar/exemplar_text.h"
#include "gen/datasets.h"
#include "gen/product_demo.h"
#include "gen/synthetic.h"
#include "graph/graph_io.h"
#include "graph/stats.h"
#include "query/query_text.h"
#include "store/artifact_store.h"
#include "store/serde.h"

namespace {

using namespace wqe;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  wqe gen <dbpedia|imdb|offshore|watdiv> <scale> <out.graph>\n"
               "  wqe demo <out-dir>\n"
               "  wqe stats <graph>\n"
               "  wqe match <graph> <query>\n"
               "  wqe whynot <graph> <query> <node-id>\n"
               "  wqe why <graph> <query> <exemplar> [--budget B] [--top-k K]\n"
               "          [--beam W] [--deadline SECONDS] [--threads N|auto]\n"
               "          [--algo answ|heu|whym|whye|fm] [--explain] [--json]\n"
               "          [--cache-dir DIR] [--trace-out FILE]\n"
               "          [--metrics-out FILE] [--query-log FILE]\n"
               "          [--sample-resources]\n");
  return 2;
}

std::string ReadFileOrDie(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

bool WriteFile(const std::string& path, const std::string& content) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

Graph LoadGraphOrDie(const std::string& path) {
  auto r = GraphIo::Load(path);
  if (!r.ok()) {
    std::fprintf(stderr, "error loading graph: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

void PrintAnswer(const Graph& g, const std::vector<NodeId>& matches) {
  std::printf("%zu matches:\n", matches.size());
  for (size_t i = 0; i < matches.size(); ++i) {
    if (i == 25) {
      std::printf("  ... (%zu more)\n", matches.size() - i);
      break;
    }
    const NodeId v = matches[i];
    const std::string name(g.name(v).empty() ? "?" : g.name(v));
    std::printf("  [%u] %s (%s)\n", v, name.c_str(),
                g.schema().LabelName(g.label(v)).c_str());
  }
}

int CmdGen(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string preset = argv[0];
  const double scale = std::atof(argv[1]);
  GraphSpec spec;
  if (preset == "dbpedia") {
    spec = DbpediaLike(scale);
  } else if (preset == "imdb") {
    spec = ImdbLike(scale);
  } else if (preset == "offshore") {
    spec = OffshoreLike(scale);
  } else if (preset == "watdiv") {
    spec = WatDivLike(scale);
  } else {
    return Usage();
  }
  Graph g = GenerateGraph(spec);
  Status s = GraphIo::Save(g, argv[2]);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu nodes, %zu edges\n", argv[2], g.num_nodes(),
              g.num_edges());
  return 0;
}

int CmdDemo(int argc, char** argv) {
  if (argc < 1) return Usage();
  const std::string dir = argv[0];
  ProductDemo demo;
  const Status s = GraphIo::Save(demo.graph(), dir + "/product.graph");
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  FILE* q = std::fopen((dir + "/product.query").c_str(), "w");
  FILE* e = std::fopen((dir + "/product.exemplar").c_str(), "w");
  if (q == nullptr || e == nullptr) {
    std::fprintf(stderr, "error: cannot write demo files in %s\n", dir.c_str());
    return 1;
  }
  std::fputs(QueryText::ToText(demo.Query(), demo.graph().schema()).c_str(), q);
  std::fputs(
      ExemplarText::ToText(demo.MakeExemplar(), demo.graph().schema()).c_str(),
      e);
  std::fclose(q);
  std::fclose(e);
  std::printf("wrote %s/product.{graph,query,exemplar}\n", dir.c_str());
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc < 1) return Usage();
  Graph g = LoadGraphOrDie(argv[0]);
  std::printf("%s", ComputeStats(g).ToString().c_str());
  return 0;
}

int CmdMatch(int argc, char** argv) {
  if (argc < 2) return Usage();
  Graph g = LoadGraphOrDie(argv[0]);
  auto q = QueryText::Parse(ReadFileOrDie(argv[1]), &g.schema());
  if (!q.ok()) {
    std::fprintf(stderr, "error parsing query: %s\n",
                 q.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n\n", q.value().ToString(g.schema()).c_str());
  DistanceIndex dist(g);
  Matcher matcher(g, &dist);
  PrintAnswer(g, matcher.Answer(q.value()));
  return 0;
}

int CmdWhyNot(int argc, char** argv) {
  if (argc < 3) return Usage();
  Graph g = LoadGraphOrDie(argv[0]);
  auto q = QueryText::Parse(ReadFileOrDie(argv[1]), &g.schema());
  if (!q.ok()) {
    std::fprintf(stderr, "error parsing query: %s\n",
                 q.status().ToString().c_str());
    return 1;
  }
  const NodeId entity = static_cast<NodeId>(std::atoll(argv[2]));
  if (entity >= g.num_nodes()) {
    std::fprintf(stderr, "error: node %u out of range\n", entity);
    return 1;
  }
  ChaseOptions opts;
  WhyQuestion w{q.value(), Exemplar()};
  ChaseContext ctx(g, w, opts);
  WhyNotReport report = ExplainWhyNot(ctx, entity);
  std::fputs(report.ToString(g).c_str(), stdout);
  return 0;
}

int CmdWhy(int argc, char** argv) {
  if (argc < 3) return Usage();
  Graph g = LoadGraphOrDie(argv[0]);
  auto q = QueryText::Parse(ReadFileOrDie(argv[1]), &g.schema());
  if (!q.ok()) {
    std::fprintf(stderr, "error parsing query: %s\n",
                 q.status().ToString().c_str());
    return 1;
  }
  auto e = ExemplarText::Parse(ReadFileOrDie(argv[2]), &g.schema());
  if (!e.ok()) {
    std::fprintf(stderr, "error parsing exemplar: %s\n",
                 e.status().ToString().c_str());
    return 1;
  }

  ChaseOptions opts;
  std::string algo = "answ";
  std::string trace_out;
  std::string metrics_out;
  std::string query_log_path;
  bool sample_resources = false;
  bool explain = false;
  bool json = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--budget") {
      opts.budget = std::atof(next());
    } else if (arg == "--top-k") {
      opts.top_k = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--beam") {
      opts.beam = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--deadline") {
      opts.time_limit_seconds = std::atof(next());
    } else if (arg == "--threads") {
      auto parsed = ParseThreadCount(next());
      if (!parsed.ok()) {
        std::fprintf(stderr, "error: --threads: %s\n",
                     parsed.status().ToString().c_str());
        return 2;
      }
      opts.num_threads = parsed.value();
    } else if (arg == "--cache-dir") {
      opts.cache_dir = next();
    } else if (arg == "--algo") {
      algo = next();
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--query-log") {
      query_log_path = next();
    } else if (arg == "--sample-resources") {
      sample_resources = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--json") {
      json = true;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  const std::optional<Algorithm> parsed = AlgorithmFromString(algo);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "error: unknown algorithm %s\n", algo.c_str());
    return 2;
  }
  if (Status s = opts.Validate(); !s.ok()) {
    std::fprintf(stderr, "error: invalid options: %s\n", s.ToString().c_str());
    return 2;
  }

  // One observation scope for the whole command; --trace-out additionally
  // buffers the raw span events for chrome://tracing.
  obs::Observability observability;
  observability.tracer.set_capture_events(!trace_out.empty());
  opts.observability = &observability;
  obs::TracerScope tracer_scope(&observability.tracer);

  // The append-only query log must outlive the solve; ChaseContext copies
  // the options, so it is wired up before the context is built.
  std::unique_ptr<obs::QueryLog> query_log;
  if (!query_log_path.empty()) {
    auto opened = obs::QueryLog::Open(query_log_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "error: --query-log: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    query_log = std::move(opened).value();
    opts.query_log = query_log.get();
  }

  // Optional background resource telemetry (off by default): its gauges and
  // histograms land in the same scope --metrics-out exports.
  std::unique_ptr<obs::ResourceSampler> sampler;
  if (sample_resources) {
    sampler = std::make_unique<obs::ResourceSampler>(&observability);
  }

  // The CLI speaks the Request/Response API: one self-describing submission
  // per invocation, the same unit the serving layer queues and the replay
  // driver reconstructs from query logs.
  Request req;
  req.question = WhyQuestion{q.value(), e.value()};
  req.options = opts;
  req.algorithm = *parsed;

  // --cache-dir: solve against the zero-copy bundle graph with its attached
  // indexes (built and written back on first run). The heap-loaded graph is
  // only the bundle key / rebuild source then.
  std::unique_ptr<MappedServingState> mapped;
  if (!opts.cache_dir.empty()) {
    store::ArtifactStore bundle_store(
        opts.cache_dir, store::Serde::GraphFingerprint(g), &observability);
    if (Status s = OpenOrBuildServingState(g, bundle_store, opts.num_threads,
                                           &mapped);
        !s.ok()) {
      std::fprintf(stderr, "error: cannot open mmap bundle: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }
  ChaseContext ctx(mapped != nullptr ? mapped->graph() : g,
                   mapped != nullptr ? &mapped->indexes : nullptr,
                   req.question, req.options);
  if (!json) {
    std::printf("Original query:\n%s\nQ(G): ",
                req.question.query.ToString(g.schema()).c_str());
    PrintAnswer(g, ctx.root()->matches);
    std::printf("\nExemplar:\n%s\nrep(E,V): %zu entities, cl* = %.4f\n\n",
                req.question.exemplar.ToString(g.schema()).c_str(),
                ctx.rep().nodes.size(), ctx.cl_star());
  }

  Response response = ExecuteWithContext(ctx, req.algorithm);
  const ChaseResult& result = response.result;

  if (sampler != nullptr) sampler->Stop();  // final sample before export
  if (!metrics_out.empty() &&
      !WriteFile(metrics_out,
                 obs::ExportMetricsJson(observability,
                                        result.stats.elapsed_seconds))) {
    return 1;
  }
  if (!trace_out.empty() &&
      !WriteFile(trace_out, observability.tracer.ChromeTraceJson())) {
    return 1;
  }

  if (json) {
    std::fputs(ChaseReport::ToJson(ctx, result, explain).c_str(), stdout);
    return 0;
  }

  for (size_t i = 0; i < result.answers.size(); ++i) {
    const WhyAnswer& a = result.answers[i];
    std::printf("== Rewrite #%zu: closeness %.4f, cost %.2f, %s ==\n", i + 1,
                a.closeness, a.cost,
                a.satisfies_exemplar ? "satisfies exemplar" : "NOT satisfying");
    std::printf("%s\nOperators: %s\n", a.rewrite.ToString(g.schema()).c_str(),
                a.ops.ToString(g.schema()).c_str());
    PrintAnswer(g, a.matches);
    if (explain) {
      std::printf("Lineage:\n%s",
                  BuildDifferentialTable(ctx, a.ops).ToString(g).c_str());
    }
    std::printf("\n");
  }
  if (explain) {
    std::fputs(ChaseReport::ExplainText(ctx, result, *parsed).c_str(), stdout);
    std::printf("\n");
  }
  std::printf("steps=%llu evaluations=%llu elapsed=%.3fs termination=%s\n",
              static_cast<unsigned long long>(result.stats.steps),
              static_cast<unsigned long long>(result.stats.evaluations),
              result.stats.elapsed_seconds,
              TerminationReasonName(result.stats.termination));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "gen") return CmdGen(argc - 2, argv + 2);
  if (cmd == "demo") return CmdDemo(argc - 2, argv + 2);
  if (cmd == "stats") return CmdStats(argc - 2, argv + 2);
  if (cmd == "match") return CmdMatch(argc - 2, argv + 2);
  if (cmd == "whynot") return CmdWhyNot(argc - 2, argv + 2);
  if (cmd == "why") return CmdWhy(argc - 2, argv + 2);
  return Usage();
}
