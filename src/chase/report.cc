#include "chase/report.h"

#include <cstring>
#include <sstream>

#include "exemplar/exemplar_text.h"
#include "obs/json.h"
#include "query/query_text.h"

namespace wqe {

std::string ChaseReport::Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  obs::AppendJsonEscaped(out, s);
  return out;
}

void ChaseReport::DigestPhases(const std::vector<obs::PhaseStat>& phases,
                               obs::RequestDigest& out) {
  // Select the top kPhases by self time without sorting the full breakdown:
  // a small insertion pass over a fixed array, since kPhases is tiny.
  const obs::PhaseStat* top[obs::RequestDigest::kPhases] = {};
  for (const obs::PhaseStat& p : phases) {
    for (size_t k = 0; k < obs::RequestDigest::kPhases; ++k) {
      if (top[k] == nullptr || p.self_seconds > top[k]->self_seconds) {
        for (size_t j = obs::RequestDigest::kPhases - 1; j > k; --j) {
          top[j] = top[j - 1];
        }
        top[k] = &p;
        break;
      }
    }
  }
  for (size_t k = 0; k < obs::RequestDigest::kPhases; ++k) {
    obs::RequestDigest::Phase& slot = out.phases[k];
    if (top[k] == nullptr) {
      slot.name[0] = '\0';
      slot.self_ns = 0;
      continue;
    }
    std::strncpy(slot.name, top[k]->name.c_str(),
                 obs::RequestDigest::kPhaseChars - 1);
    slot.name[obs::RequestDigest::kPhaseChars - 1] = '\0';
    slot.self_ns = static_cast<uint64_t>(top[k]->self_seconds * 1e9);
  }
}

uint64_t ChaseReport::QuestionFingerprint(const WhyQuestion& question) {
  // FNV-1a over the query's canonical form plus the exemplar's content. The
  // canonical form is the same string the plan memo keys on; the exemplar
  // goes in cell by cell, each list length-prefixed so that regrouping the
  // same cells into different tuples changes the hash.
  uint64_t h = 1469598103934665603ull;
  const auto mix_byte = [&h](unsigned char b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  for (char c : question.query.Fingerprint()) {
    mix_byte(static_cast<unsigned char>(c));
  }
  const auto mix_word = [&mix_byte](uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte((v >> (i * 8)) & 0xff);
  };
  const auto mix_value = [&](const Value& v) {
    mix_byte(static_cast<unsigned char>(v.kind()));
    if (v.is_num()) {
      const double num = v.num() == 0 ? 0.0 : v.num();  // -0 == 0
      uint64_t bits = 0;
      std::memcpy(&bits, &num, sizeof(bits));
      mix_word(bits);
    } else if (v.is_str()) {
      mix_word(v.str());
    }
  };
  const Exemplar& e = question.exemplar;
  mix_word(e.tuples().size());
  for (const TuplePattern& t : e.tuples()) {
    mix_word(t.cells().size());
    for (const PatternCell& cell : t.cells()) {
      mix_word(cell.attr);
      mix_value(cell.constant);
    }
  }
  mix_word(e.constraints().size());
  for (const ConstraintLiteral& c : e.constraints()) {
    mix_byte(static_cast<unsigned char>(c.kind));
    mix_word(c.lhs.tuple);
    mix_word(c.lhs.attr);
    mix_byte(static_cast<unsigned char>(c.op));
    if (c.kind == ConstraintLiteral::Kind::kVarVar) {
      mix_word(c.rhs.tuple);
      mix_word(c.rhs.attr);
    } else {
      mix_value(c.constant);
    }
  }
  return h;
}

obs::QueryLogRecord ChaseReport::BuildQueryLogRecord(ChaseContext& ctx,
                                                     const ChaseResult& result,
                                                     Algorithm algo) {
  obs::QueryLogRecord rec;
  rec.algorithm = AlgorithmName(algo);
  switch (algo) {
    case Algorithm::kAnsWE:
      rec.question_kind = "why-empty";
      break;
    case Algorithm::kApxWhyM:
      rec.question_kind = "why-many";
      break;
    default:
      rec.question_kind = "why";
      break;
  }
  rec.graph_fingerprint = ctx.graph_fingerprint();
  rec.options_fingerprint = ctx.options().Fingerprint();

  // The question itself, in the replayable text formats. ToText only reads
  // the (already interned) schema, so the const_cast-free serialization is
  // safe against the context's graph.
  rec.query_text = QueryText::ToText(ctx.question().query, ctx.graph().schema());
  rec.exemplar_text =
      ExemplarText::ToText(ctx.question().exemplar, ctx.graph().schema());

  rec.termination = TerminationReasonName(result.stats.termination);
  rec.status = result.status.ToString();
  rec.elapsed_seconds = result.stats.elapsed_seconds;
  rec.num_answers = result.answers.size();
  rec.cl_star = ctx.cl_star();
  rec.steps = result.stats.steps;
  rec.evaluations = result.stats.evaluations;
  rec.memo_hits = result.stats.memo_hits;
  rec.ops_generated = result.stats.ops_generated;
  rec.pruned = result.stats.pruned;
  rec.bound_cuts = result.stats.bound_cuts;
  rec.phases = result.stats.phases;
  rec.cache_hits = result.stats.cache_hits;
  rec.cache_misses = result.stats.cache_misses;
  rec.tables_built = result.stats.tables_built;
  rec.store_hits = result.stats.store_hits;
  rec.store_misses = result.stats.store_misses;
  rec.delta_hits = result.stats.delta_hits;
  rec.delta_full_fallbacks = result.stats.delta_full_fallbacks;

  if (result.found()) {
    const WhyAnswer& best = result.best();
    rec.closeness = best.closeness;
    rec.satisfied = best.satisfies_exemplar;
    rec.answer_fingerprint = best.fingerprint.empty()
                                 ? best.rewrite.Fingerprint()
                                 : best.fingerprint;
    const Schema& schema = ctx.graph().schema();
    for (const Op& op : best.ops.ops()) {
      obs::QueryLogRecord::OpEntry e;
      e.text = op.ToString(schema);
      e.kind = op.is_relax() ? "relax" : op.is_refine() ? "refine" : "noop";
      e.cost = ctx.OpCostOf(op);
      rec.ops.push_back(std::move(e));
    }
  }
  return rec;
}

std::string ChaseReport::ExplainText(const obs::QueryLogRecord& rec) {
  std::ostringstream out;
  out << "Explain (" << rec.algorithm << ", " << rec.question_kind << "):\n";
  char line[160];
  std::snprintf(line, sizeof(line),
                "  graph fp %016llx | options fp %016llx\n",
                static_cast<unsigned long long>(rec.graph_fingerprint),
                static_cast<unsigned long long>(rec.options_fingerprint));
  out << line;
  std::snprintf(line, sizeof(line),
                "  termination %s | elapsed %.4fs | closeness %.4f / cl* %.4f "
                "| %s\n",
                rec.termination.c_str(), rec.elapsed_seconds, rec.closeness,
                rec.cl_star,
                rec.satisfied ? "satisfies exemplar" : "NOT satisfying");
  out << line;
  std::snprintf(line, sizeof(line),
                "  work: steps=%llu evaluations=%llu memo_hits=%llu "
                "ops_generated=%llu pruned=%llu\n",
                static_cast<unsigned long long>(rec.steps),
                static_cast<unsigned long long>(rec.evaluations),
                static_cast<unsigned long long>(rec.memo_hits),
                static_cast<unsigned long long>(rec.ops_generated),
                static_cast<unsigned long long>(rec.pruned));
  out << line;
  std::snprintf(line, sizeof(line),
                "  views: cache %llu hit / %llu miss, %llu tables built | "
                "store %llu hit / %llu miss\n",
                static_cast<unsigned long long>(rec.cache_hits),
                static_cast<unsigned long long>(rec.cache_misses),
                static_cast<unsigned long long>(rec.tables_built),
                static_cast<unsigned long long>(rec.store_hits),
                static_cast<unsigned long long>(rec.store_misses));
  out << line;
  std::snprintf(line, sizeof(line),
                "  delta: %llu incremental / %llu full, %llu bound cuts\n",
                static_cast<unsigned long long>(rec.delta_hits),
                static_cast<unsigned long long>(rec.delta_full_fallbacks),
                static_cast<unsigned long long>(rec.bound_cuts));
  out << line;

  out << "  applied operators (" << rec.ops.size() << "):\n";
  if (rec.ops.empty()) {
    out << "    (none — the original query is the best rewrite)\n";
  }
  for (size_t i = 0; i < rec.ops.size(); ++i) {
    std::snprintf(line, sizeof(line), "    %zu. [%s, cost %.2f] ", i + 1,
                  rec.ops[i].kind.c_str(), rec.ops[i].cost);
    out << line << rec.ops[i].text << '\n';
  }

  out << "  phases (self time):\n";
  if (rec.phases.empty()) out << "    (no traced phases)\n";
  for (const obs::PhaseStat& p : rec.phases) {
    std::snprintf(line, sizeof(line),
                  "    %-24s x%-6llu self %8.4fs  wall %8.4fs  cpu %8.4fs\n",
                  p.name.c_str(), static_cast<unsigned long long>(p.count),
                  p.self_seconds, p.wall_seconds, p.cpu_seconds);
    out << line;
  }
  return out.str();
}

std::string ChaseReport::ToJson(ChaseContext& ctx, const ChaseResult& result,
                                bool with_lineage) {
  const Graph& g = ctx.graph();
  const Schema& schema = g.schema();
  std::ostringstream out;

  auto node_array = [&](const std::vector<NodeId>& nodes) {
    std::ostringstream arr;
    arr << '[';
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (i > 0) arr << ',';
      arr << "{\"id\":" << nodes[i] << ",\"name\":\""
          << Escape(g.name(nodes[i])) << "\"}";
    }
    arr << ']';
    return arr.str();
  };

  out << "{\n";
  out << "  \"cl_star\": " << obs::JsonNumber(ctx.cl_star()) << ",\n";
  out << "  \"rep_size\": " << ctx.rep().nodes.size() << ",\n";
  out << "  \"candidates\": " << ctx.focus_universe().size() << ",\n";
  out << "  \"original_closeness\": " << obs::JsonNumber(ctx.root()->cl)
      << ",\n";
  out << "  \"stats\": {\"steps\": " << result.stats.steps
      << ", \"evaluations\": " << result.stats.evaluations
      << ", \"memo_hits\": " << result.stats.memo_hits
      << ", \"pruned\": " << result.stats.pruned << ", \"elapsed_seconds\": "
      << obs::JsonNumber(result.stats.elapsed_seconds) << "},\n";
  out << "  \"termination\": \""
      << TerminationReasonName(result.stats.termination) << "\",\n";
  out << "  \"status\": \"" << Escape(result.status.ToString()) << "\",\n";
  out << "  \"phases\": " << obs::PhasesJson(result.stats.phases) << ",\n";
  out << "  \"metrics\": " << ctx.obs().metrics.ToJson() << ",\n";

  out << "  \"answers\": [\n";
  for (size_t i = 0; i < result.answers.size(); ++i) {
    const WhyAnswer& a = result.answers[i];
    out << "    {\n";
    out << "      \"rank\": " << (i + 1) << ",\n";
    out << "      \"closeness\": " << obs::JsonNumber(a.closeness) << ",\n";
    out << "      \"cost\": " << obs::JsonNumber(a.cost) << ",\n";
    out << "      \"satisfies_exemplar\": "
        << (a.satisfies_exemplar ? "true" : "false") << ",\n";
    out << "      \"query\": \"" << Escape(a.rewrite.ToString(schema)) << "\",\n";
    out << "      \"operators\": [";
    for (size_t o = 0; o < a.ops.size(); ++o) {
      if (o > 0) out << ',';
      out << '"' << Escape(a.ops.ops()[o].ToString(schema)) << '"';
    }
    out << "],\n";
    out << "      \"matches\": " << node_array(a.matches);
    if (with_lineage) {
      DifferentialTable table = BuildDifferentialTable(ctx, a.ops);
      out << ",\n      \"lineage\": [";
      for (size_t e = 0; e < table.entries().size(); ++e) {
        const DifferentialEntry& entry = table.entries()[e];
        if (e > 0) out << ',';
        out << "{\"operator\":\"" << Escape(entry.op.ToString(schema))
            << "\",\"gained\":[";
        for (size_t k = 0; k < entry.gained.size(); ++k) {
          if (k > 0) out << ',';
          out << "{\"id\":" << entry.gained[k].first << ",\"relevance\":\""
              << RelevanceName(entry.gained[k].second) << "\"}";
        }
        out << "],\"lost\":[";
        for (size_t k = 0; k < entry.lost.size(); ++k) {
          if (k > 0) out << ',';
          out << "{\"id\":" << entry.lost[k].first << ",\"relevance\":\""
              << RelevanceName(entry.lost[k].second) << "\"}";
        }
        out << "]}";
      }
      out << "]";
    }
    out << "\n    }" << (i + 1 < result.answers.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace wqe
