#include "obs/query_log.h"

#include <sstream>

#include "obs/json.h"
#include "obs/observability.h"

namespace wqe::obs {

namespace {

uint64_t U64Or(const JsonValue& v, std::string_view key, uint64_t dflt) {
  return static_cast<uint64_t>(v.NumberOr(key, static_cast<double>(dflt)));
}

}  // namespace

Status ParseHexFingerprint(std::string_view text, uint64_t* out) {
  if (text.empty() || text.size() > 16) {
    return Status::InvalidArgument("fingerprint must be 1..16 hex digits, got '" +
                                   std::string(text) + "'");
  }
  uint64_t v = 0;
  for (const char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return Status::InvalidArgument("fingerprint has non-hex character in '" +
                                     std::string(text) + "'");
    }
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  *out = v;
  return Status::OK();
}

std::string QueryLogRecord::ToJson() const {
  std::ostringstream out;
  out << "{\"algorithm\":" << JsonString(algorithm)
      << ",\"question_kind\":" << JsonString(question_kind)
      << ",\"graph_fingerprint\":" << JsonString(
             [&] {
               char buf[24];
               std::snprintf(buf, sizeof(buf), "%016llx",
                             static_cast<unsigned long long>(graph_fingerprint));
               return std::string(buf);
             }())
      << ",\"options_fingerprint\":" << JsonString([&] {
           char buf[24];
           std::snprintf(buf, sizeof(buf), "%016llx",
                         static_cast<unsigned long long>(options_fingerprint));
           return std::string(buf);
         }())
      << ",\"query\":" << JsonString(query_text)
      << ",\"exemplar\":" << JsonString(exemplar_text)
      << ",\"termination\":" << JsonString(termination)
      << ",\"status\":" << JsonString(status)
      << ",\"elapsed_seconds\":" << JsonNumber(elapsed_seconds)
      << ",\"num_answers\":" << num_answers
      << ",\"closeness\":" << JsonNumber(closeness)
      << ",\"cl_star\":" << JsonNumber(cl_star)
      << ",\"satisfied\":" << (satisfied ? "true" : "false")
      << ",\"answer_fingerprint\":" << JsonString(answer_fingerprint)
      << ",\"steps\":" << steps << ",\"evaluations\":" << evaluations
      << ",\"memo_hits\":" << memo_hits
      << ",\"ops_generated\":" << ops_generated << ",\"pruned\":" << pruned
      << ",\"bound_cuts\":" << bound_cuts
      << ",\"delta_hits\":" << delta_hits
      << ",\"delta_full_fallbacks\":" << delta_full_fallbacks
      << ",\"cache_hits\":" << cache_hits
      << ",\"cache_misses\":" << cache_misses
      << ",\"tables_built\":" << tables_built
      << ",\"store_hits\":" << store_hits
      << ",\"store_misses\":" << store_misses;
  out << ",\"ops\":[";
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) out << ',';
    out << "{\"op\":" << JsonString(ops[i].text)
        << ",\"kind\":" << JsonString(ops[i].kind)
        << ",\"cost\":" << JsonNumber(ops[i].cost) << '}';
  }
  out << "],\"phases\":" << PhasesJson(phases) << '}';
  return out.str();
}

Result<QueryLogRecord> QueryLogRecord::FromJson(const JsonValue& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("query log record is not a JSON object");
  }
  QueryLogRecord rec;
  rec.algorithm = v.StringOr("algorithm", "");
  rec.question_kind = v.StringOr("question_kind", "");
  // Missing fingerprints default to "0" (records predating provenance);
  // *present but malformed* ones reject the record.
  if (Status s = ParseHexFingerprint(v.StringOr("graph_fingerprint", "0"),
                                     &rec.graph_fingerprint);
      !s.ok()) {
    return s;
  }
  if (Status s = ParseHexFingerprint(v.StringOr("options_fingerprint", "0"),
                                     &rec.options_fingerprint);
      !s.ok()) {
    return s;
  }
  rec.query_text = v.StringOr("query", "");
  rec.exemplar_text = v.StringOr("exemplar", "");
  rec.termination = v.StringOr("termination", "");
  rec.status = v.StringOr("status", "");
  rec.elapsed_seconds = v.NumberOr("elapsed_seconds", 0);
  rec.num_answers = static_cast<size_t>(v.NumberOr("num_answers", 0));
  rec.closeness = v.NumberOr("closeness", 0);
  rec.cl_star = v.NumberOr("cl_star", 0);
  rec.satisfied = v.BoolOr("satisfied", false);
  rec.answer_fingerprint = v.StringOr("answer_fingerprint", "");
  rec.steps = U64Or(v, "steps", 0);
  rec.evaluations = U64Or(v, "evaluations", 0);
  rec.memo_hits = U64Or(v, "memo_hits", 0);
  rec.ops_generated = U64Or(v, "ops_generated", 0);
  rec.pruned = U64Or(v, "pruned", 0);
  rec.bound_cuts = U64Or(v, "bound_cuts", 0);
  rec.delta_hits = U64Or(v, "delta_hits", 0);
  rec.delta_full_fallbacks = U64Or(v, "delta_full_fallbacks", 0);
  rec.cache_hits = U64Or(v, "cache_hits", 0);
  rec.cache_misses = U64Or(v, "cache_misses", 0);
  rec.tables_built = U64Or(v, "tables_built", 0);
  rec.store_hits = U64Or(v, "store_hits", 0);
  rec.store_misses = U64Or(v, "store_misses", 0);
  if (const JsonValue* ops = v.Find("ops"); ops != nullptr && ops->is_array()) {
    for (const JsonValue& o : ops->items) {
      OpEntry e;
      e.text = o.StringOr("op", "");
      e.kind = o.StringOr("kind", "");
      e.cost = o.NumberOr("cost", 0);
      rec.ops.push_back(std::move(e));
    }
  }
  if (const JsonValue* ph = v.Find("phases"); ph != nullptr && ph->is_array()) {
    for (const JsonValue& p : ph->items) {
      PhaseStat s;
      s.name = p.StringOr("name", "");
      s.count = U64Or(p, "count", 0);
      s.wall_seconds = p.NumberOr("wall_s", 0);
      s.self_seconds = p.NumberOr("self_s", 0);
      s.cpu_seconds = p.NumberOr("cpu_s", 0);
      rec.phases.push_back(std::move(s));
    }
  }
  return rec;
}

QueryLog::QueryLog(std::string path, std::FILE* f)
    : path_(std::move(path)), file_(f) {}

QueryLog::~QueryLog() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<QueryLog>> QueryLog::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open query log for append: " + path);
  }
  return std::unique_ptr<QueryLog>(new QueryLog(path, f));
}

bool QueryLog::Append(const QueryLogRecord& rec) {
  std::string line = rec.ToJson();
  line += '\n';
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return false;
  const bool ok =
      std::fwrite(line.data(), 1, line.size(), file_) == line.size() &&
      std::fflush(file_) == 0;
  if (ok) ++written_;
  return ok;
}

uint64_t QueryLog::records_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return written_;
}

Result<QueryLog::LoadResult> QueryLog::Load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open query log: " + path);
  }
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);

  LoadResult out;
  size_t start = 0;
  while (start < content.size()) {
    size_t end = content.find('\n', start);
    if (end == std::string::npos) end = content.size();
    const std::string_view line(content.data() + start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    Result<JsonValue> parsed = ParseJson(line);
    if (!parsed.ok()) {
      ++out.skipped_lines;  // torn final write or external damage
      continue;
    }
    Result<QueryLogRecord> rec = QueryLogRecord::FromJson(parsed.value());
    if (!rec.ok()) {
      ++out.skipped_lines;
      continue;
    }
    out.records.push_back(std::move(rec).value());
  }
  return out;
}

}  // namespace wqe::obs
