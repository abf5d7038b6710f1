// wqe_top — terminal dashboard for a live wqe_serve process. Polls the
// telemetry listener's /statusz and redraws an ANSI screen with admission
// state, rolling SLO quantiles, cache/delta-eval traffic, and flight
// recorder occupancy.
//
//   wqe_top [--host H] --port P [--interval S] [--once]
//
// --once prints a single snapshot without ANSI control codes (scriptable;
// the check.sh smoke stage uses it against a lingering wqe_serve).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include <chrono>

#include "obs/json.h"
#include "obs/telemetry.h"

namespace {

using namespace wqe;

int Usage() {
  std::fprintf(stderr,
               "usage: wqe_top [--host H] --port P [--interval S] [--once]\n");
  return 2;
}

double Num(const obs::JsonValue* obj, const char* key) {
  return obj == nullptr ? 0 : obj->NumberOr(key, 0);
}

void Render(const obs::JsonValue& doc, const std::string& host, int port,
            bool ansi) {
  if (ansi) std::printf("\x1b[H\x1b[2J");  // home + clear

  const obs::JsonValue* req = doc.Find("requests");
  const obs::JsonValue* lat = doc.Find("latency");
  const obs::JsonValue* que = doc.Find("queue_wait");
  const obs::JsonValue* cache = doc.Find("cache");
  const obs::JsonValue* delta = doc.Find("delta_eval");
  const obs::JsonValue* flight = doc.Find("flight");

  std::printf("wqe_top — %s:%d   uptime %.0fs   graph %s (%.0f nodes)\n",
              host.c_str(), port, doc.NumberOr("uptime_seconds", 0),
              doc.StringOr("graph_fp", "?").c_str(),
              doc.NumberOr("graph_nodes", 0));
  std::printf("build %s   concurrency %.0f   queue bound %.0f\n\n",
              doc.StringOr("build", "?").c_str(),
              doc.NumberOr("concurrency", 0), doc.NumberOr("max_queue", 0));

  std::printf("requests   admitted %8.0f   completed %8.0f   shed %6.0f   "
              "deadline-expired %6.0f\n",
              Num(req, "admitted"), Num(req, "completed"), Num(req, "shed"),
              Num(req, "deadline_expired"));
  std::printf("in flight  queued   %8.0f   executing %8.0f\n\n",
              Num(req, "queued"), Num(req, "executing"));

  std::printf("latency    p50 %9.2fms   p95 %9.2fms   p99 %9.2fms   "
              "(%.0f in %.0fs window)\n",
              Num(lat, "p50_ms"), Num(lat, "p95_ms"), Num(lat, "p99_ms"),
              Num(lat, "count"), Num(lat, "window_s"));
  std::printf("queue wait p50 %9.2fms   p95 %9.2fms   p99 %9.2fms\n\n",
              Num(que, "p50_ms"), Num(que, "p95_ms"), Num(que, "p99_ms"));

  const double hits = Num(cache, "hits");
  const double misses = Num(cache, "misses");
  const double total = hits + misses;
  std::printf("view cache hits %9.0f   misses %7.0f   hit rate %5.1f%%   "
              "entries %6.0f   evictions %6.0f\n",
              hits, misses, total > 0 ? 100.0 * hits / total : 0.0,
              Num(cache, "entries"), Num(cache, "evictions"));
  std::printf("delta eval hits %9.0f   fallbacks %5.0f   "
              "reverified %5.0f   skipped %7.0f\n\n",
              Num(delta, "hits"), Num(delta, "full_fallbacks"),
              Num(delta, "reverified"), Num(delta, "skipped"));

  std::printf("flights    recorded %7.0f   slow %6.0f   "
              "(curl /requestz for digests)\n",
              Num(flight, "recorded"), Num(flight, "slow_recorded"));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  double interval = 1.0;
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      host = next();
    } else if (arg == "--port") {
      port = std::atoi(next());
    } else if (arg == "--interval") {
      interval = std::atof(next());
    } else if (arg == "--once") {
      once = true;
    } else {
      return Usage();
    }
  }
  if (port <= 0 || port > 65535) return Usage();

  int consecutive_failures = 0;
  for (;;) {
    const Result<std::string> body = obs::HttpGet(
        host, static_cast<uint16_t>(port), "/statusz", /*timeout_seconds=*/2);
    if (!body.ok()) {
      std::fprintf(stderr, "wqe_top: %s\n", body.status().ToString().c_str());
      if (once || ++consecutive_failures >= 5) return 1;
    } else {
      const Result<obs::JsonValue> doc = obs::ParseJson(body.value());
      if (!doc.ok()) {
        std::fprintf(stderr, "wqe_top: bad /statusz: %s\n",
                     doc.status().ToString().c_str());
        return 1;
      }
      consecutive_failures = 0;
      Render(doc.value(), host, port, /*ansi=*/!once);
    }
    if (once) return 0;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int>(interval * 1000)));
  }
}
