// wqe_serve — open-loop traffic generator against the concurrent serving
// layer. Feeds a recorded query-log trace (see `replay record`) back through
// a Server at a configurable arrival rate and reports throughput, latency
// quantiles, shed counts, and answer verification against the trace.
//
//   wqe_serve <graph> <trace.jsonl> [--qps R] [--concurrency N]
//             [--max-queue Q] [--budget B] [--deadline S] [--threads N|auto]
//             [--limit N] [--repeat K] [--cache-dir DIR]
//             [--metrics-out FILE] [--no-check-fp] [--strict]
//             [--telemetry-port P] [--port-file FILE] [--scrape-dir DIR]
//             [--linger S]
//
// --telemetry-port P starts the HTTP exposition listener (/statusz,
// /metricsz, /requestz; P=0 binds an ephemeral port, written to --port-file
// when given, so scripts can find it). --scrape-dir DIR self-scrapes all
// three endpoints over real HTTP after the replay and writes
// statusz.json / metricsz.txt / requestz.json there — the check.sh smoke
// stage diffs those against the replay client's own totals. --linger S keeps
// the server (and its telemetry port) up S seconds after the replay so an
// operator can point curl or wqe_top at a live process.
//
// --cache-dir DIR serves from the store's zero-copy bundle: the graph
// columns and PLL index are mmap'ed read-only straight from bundle.wqes, so
// cold start is near-instant after the first run and any number of
// concurrent wqe_serve processes share one physical copy via the page cache.
// Missing/stale bundles are rebuilt and written back. The server also warms
// its star-view cache from DIR and persists it on shutdown.
//
// --qps 0 (default) runs closed-loop: every request is submitted
// immediately, so the run measures peak sustainable throughput under
// admission control. --strict exits non-zero when any replayed answer
// differs from the trace or any request fails (deadline-free runs are
// byte-identical to the sequential recording by construction).

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include <memory>

#include "chase/eval.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "graph/graph_io.h"
#include "obs/observability.h"
#include "obs/query_log.h"
#include "obs/telemetry.h"
#include "serve/replay.h"
#include "serve/server.h"
#include "store/artifact_store.h"
#include "store/serde.h"

namespace {

using namespace wqe;

int Usage() {
  std::fprintf(stderr,
               "usage: wqe_serve <graph> <trace.jsonl> [--qps R]\n"
               "       [--concurrency N] [--max-queue Q] [--budget B]\n"
               "       [--deadline S] [--threads N|auto] [--limit N]\n"
               "       [--repeat K] [--cache-dir DIR]\n"
               "       [--metrics-out FILE] [--no-check-fp] [--strict]\n"
               "       [--telemetry-port P] [--port-file FILE]\n"
               "       [--scrape-dir DIR] [--linger S]\n");
  return 2;
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

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  auto loaded_graph = GraphIo::Load(argv[1]);
  if (!loaded_graph.ok()) {
    std::fprintf(stderr, "error loading graph: %s\n",
                 loaded_graph.status().ToString().c_str());
    return 1;
  }
  Graph g = std::move(loaded_graph).value();

  auto trace = obs::QueryLog::Load(argv[2]);
  if (!trace.ok()) {
    std::fprintf(stderr, "error loading trace: %s\n",
                 trace.status().ToString().c_str());
    return 1;
  }

  serve::ServerOptions server_opts;
  serve::ReplayOptions replay_opts;
  std::string metrics_out;
  std::string port_file;
  std::string scrape_dir;
  double linger_seconds = 0;
  bool strict = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--qps") {
      replay_opts.qps = std::atof(next());
    } else if (arg == "--concurrency") {
      server_opts.concurrency = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--max-queue") {
      server_opts.max_queue = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--budget") {
      replay_opts.options.budget = std::atof(next());
    } else if (arg == "--deadline") {
      replay_opts.options.time_limit_seconds = std::atof(next());
    } else if (arg == "--threads") {
      auto parsed = ParseThreadCount(next());
      if (!parsed.ok()) {
        std::fprintf(stderr, "error: --threads: %s\n",
                     parsed.status().ToString().c_str());
        return 2;
      }
      replay_opts.options.num_threads = parsed.value();
    } else if (arg == "--limit") {
      replay_opts.limit = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--repeat") {
      replay_opts.repeat = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--cache-dir") {
      server_opts.cache_dir = next();
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--telemetry-port") {
      server_opts.telemetry_port = std::atoi(next());
    } else if (arg == "--port-file") {
      port_file = next();
    } else if (arg == "--scrape-dir") {
      scrape_dir = next();
    } else if (arg == "--linger") {
      linger_seconds = std::atof(next());
    } else if (arg == "--no-check-fp") {
      replay_opts.check_fingerprint = false;
    } else if (arg == "--strict") {
      strict = true;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  obs::Observability obs;
  server_opts.observability = &obs;

  Timer startup;
  // --cache-dir: attach the serving state zero-copy from the bundle
  // (building and writing it back on first run); the server then borrows the
  // attached indexes and the mapped graph replaces the heap-loaded one.
  std::unique_ptr<MappedServingState> mapped;
  if (!server_opts.cache_dir.empty()) {
    store::ArtifactStore bundle_store(
        server_opts.cache_dir, store::Serde::GraphFingerprint(g), &obs);
    if (Status s = OpenOrBuildServingState(g, bundle_store,
                                           /*num_threads=*/0, &mapped);
        !s.ok()) {
      std::fprintf(stderr, "error: cannot open mmap bundle: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    server_opts.prebuilt_indexes = &mapped->indexes;
  }
  const Graph& serve_graph = mapped != nullptr ? mapped->graph() : g;

  serve::Server server(serve_graph, server_opts);
  std::printf("server up in %.2fs: concurrency %zu, queue bound %zu%s\n",
              startup.ElapsedSeconds(), server.concurrency(),
              server.options().max_queue,
              mapped != nullptr ? " (mmap bundle)" : "");

  if (server_opts.telemetry_port >= 0) {
    if (!server.telemetry_status().ok()) {
      std::fprintf(stderr, "error: telemetry: %s\n",
                   server.telemetry_status().ToString().c_str());
      return 1;
    }
    std::printf("telemetry on http://127.0.0.1:%u "
                "(/statusz /metricsz /requestz; SIGUSR1 dumps flights)\n",
                server.telemetry_port());
    if (!port_file.empty() &&
        !WriteFile(port_file, std::to_string(server.telemetry_port()) + "\n")) {
      return 1;
    }
  }

  // Replay parses the trace against the heap graph's schema (parsing may
  // intern; the mapped graph is read-only) — same fingerprint, same schema.
  const serve::ReplayStats stats =
      serve::Replay(server, g, trace.value().records, replay_opts);
  std::fputs(stats.ToString().c_str(), stdout);

  const serve::Server::Stats srv = server.stats();
  std::printf("server: admitted %llu, shed %llu, completed %llu, "
              "deadline-expired %llu\n",
              static_cast<unsigned long long>(srv.admitted),
              static_cast<unsigned long long>(srv.shed),
              static_cast<unsigned long long>(srv.completed),
              static_cast<unsigned long long>(srv.deadline_expired));
  std::printf("server: rolling latency p50 %.2fms p99 %.2fms "
              "(last %.0fs window)\n",
              srv.latency_p50_ms, srv.latency_p99_ms,
              server.options().slo_window_seconds);
  std::printf("shared artifacts: %zu cached views, %zu shared plans "
              "(%llu plan hits)\n",
              server.view_cache().size(), server.shared_plans().size(),
              static_cast<unsigned long long>(server.shared_plans().hits()));
  std::printf("phases (self time, merged across requests):\n");
  for (const obs::PhaseStat& p : server.MergedPhases()) {
    std::printf("  %-24s x%-6llu self %8.4fs\n", p.name.c_str(),
                static_cast<unsigned long long>(p.count), p.self_seconds);
  }

  if (!metrics_out.empty() &&
      !WriteFile(metrics_out,
                 obs::ExportMetricsJson(obs, stats.wall_seconds))) {
    return 1;
  }

  // Self-scrape over real HTTP (not an in-process shortcut): the smoke stage
  // wants proof the listener serves what the server counted.
  if (!scrape_dir.empty()) {
    if (server.telemetry_port() == 0) {
      std::fprintf(stderr, "error: --scrape-dir needs --telemetry-port\n");
      return 1;
    }
    const struct {
      const char* path;
      const char* file;
    } kScrapes[] = {{"/statusz", "/statusz.json"},
                    {"/metricsz", "/metricsz.txt"},
                    {"/requestz", "/requestz.json"}};
    for (const auto& s : kScrapes) {
      const Result<std::string> body =
          obs::HttpGet("127.0.0.1", server.telemetry_port(), s.path);
      if (!body.ok()) {
        std::fprintf(stderr, "error: scrape %s: %s\n", s.path,
                     body.status().ToString().c_str());
        return 1;
      }
      if (!WriteFile(scrape_dir + s.file, body.value())) return 1;
    }
    std::printf("scraped /statusz /metricsz /requestz into %s\n",
                scrape_dir.c_str());
  }

  if (linger_seconds > 0) {
    std::printf("lingering %.1fs for live scrapes...\n", linger_seconds);
    std::fflush(stdout);
    Timer linger;
    while (linger.ElapsedSeconds() < linger_seconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  if (stats.submitted == 0) {
    std::fprintf(stderr, "error: no replayable records in the trace\n");
    return 1;
  }
  if (strict && (stats.mismatched != 0 || stats.failed != 0)) {
    std::fprintf(stderr,
                 "error: strict replay: %zu mismatched, %zu failed\n",
                 stats.mismatched, stats.failed);
    return 1;
  }
  return 0;
}
