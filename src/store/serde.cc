#include "store/serde.h"

#include <cassert>
#include <utility>

#include "graph/adom.h"
#include "graph/graph.h"
#include "match/star_table.h"

namespace wqe::store {

namespace {

Status Corrupt(const char* what) {
  return Status::InvalidArgument(std::string("corrupt artifact payload: ") +
                                 what);
}

/// Writes an interner's symbol table: total size, then every symbol after the
/// pre-interned empty string at id 0.
template <typename NameFn>
void EncodeSymbols(Writer& w, size_t size, NameFn name) {
  w.U64(size);
  for (size_t i = 1; i < size; ++i) w.Str(name(i));
}

/// Replays a symbol table into a fresh interner via `intern`, verifying that
/// ids come out identical to the encoded ones (a duplicate or reordered
/// symbol means the payload is corrupt).
template <typename InternFn>
Status DecodeSymbols(Reader& r, const char* what, InternFn intern) {
  uint64_t size = 0;
  if (Status s = r.U64(&size); !s.ok()) return s;
  if (size == 0) return Corrupt(what);
  // Every symbol costs at least its 8-byte length prefix.
  if (Status s = r.CheckCount(size - 1, 8, what); !s.ok()) return s;
  std::string sym;
  for (uint64_t i = 1; i < size; ++i) {
    if (Status s = r.Str(&sym); !s.ok()) return s;
    if (intern(sym) != i) return Corrupt(what);
  }
  return Status::OK();
}

}  // namespace

// -------- Schema --------

void Serde::EncodeSchema(const Schema& schema, Writer& w) {
  EncodeSymbols(w, schema.num_labels(),
                [&](size_t i) { return schema.LabelName(static_cast<LabelId>(i)); });
  EncodeSymbols(w, schema.num_edge_labels(), [&](size_t i) {
    return schema.EdgeLabelName(static_cast<LabelId>(i));
  });
  EncodeSymbols(w, schema.num_attrs(),
                [&](size_t i) { return schema.AttrName(static_cast<AttrId>(i)); });
  EncodeSymbols(w, schema.strings().size(), [&](size_t i) {
    return schema.StrName(static_cast<SymbolId>(i));
  });
}

Status Serde::DecodeSchema(Reader& r, Schema* out) {
  Schema& schema = *out;
  if (Status s = DecodeSymbols(
          r, "label table", [&](const std::string& n) { return schema.InternLabel(n); });
      !s.ok()) {
    return s;
  }
  if (Status s = DecodeSymbols(r, "edge-label table",
                               [&](const std::string& n) {
                                 return schema.InternEdgeLabel(n);
                               });
      !s.ok()) {
    return s;
  }
  if (Status s = DecodeSymbols(
          r, "attr table", [&](const std::string& n) { return schema.InternAttr(n); });
      !s.ok()) {
    return s;
  }
  return DecodeSymbols(r, "string table", [&](const std::string& n) {
    return schema.InternStr(n).str();
  });
}

// -------- Graph --------

std::string Serde::EncodeGraph(const Graph& g) {
  // The canonical encoding reads through the columnar view, so heap-built,
  // decoded, and mmap-attached graphs all produce the same bytes (Finalize
  // sorts attr tuples, so the columns are already in canonical order).
  assert(g.finalized());
  const GraphView& view = g.view();
  Writer w;
  EncodeSchema(g.schema(), w);

  const size_t n = g.num_nodes();
  w.U64(n);
  w.PodVec(view.labels);
  for (NodeId v = 0; v < n; ++v) w.Str(g.name(v));
  for (NodeId v = 0; v < n; ++v) {
    const std::span<const AttrPair> tuple = g.attrs(v);
    w.U64(tuple.size());
    for (const AttrPair& pair : tuple) {
      w.U32(pair.attr);
      w.U8(static_cast<uint8_t>(pair.value.kind()));
      if (pair.value.is_num()) {
        w.F64(pair.value.num());
      } else if (pair.value.is_str()) {
        w.U32(pair.value.str());
      }
    }
  }
  w.PodVec(view.edge_from);
  w.PodVec(view.edge_to);
  w.PodVec(view.edge_labels);
  return w.Take();
}

uint64_t Serde::GraphFingerprint(const Graph& g) {
  // Attached graphs return the fingerprint recorded when the bundle was
  // written: it was computed from the same canonical encoding, and skipping
  // the re-encode keeps fingerprint lookups from paging in the whole bundle.
  if (g.attached()) return g.attached_fingerprint_;
  return Fnv1a(EncodeGraph(g));
}

// -------- Active domains --------

std::string Serde::EncodeAdom(const ActiveDomains& a) {
  Writer w;
  w.U64(a.num_values_.size());
  for (size_t i = 0; i < a.num_values_.size(); ++i) {
    w.PodVec(a.num_values_[i]);
    w.PodVec(a.str_values_[i]);
  }
  w.PodVec(a.ranges_);
  return w.Take();
}

Status Serde::DecodeAdom(std::string_view payload, const Graph& g,
                         std::unique_ptr<ActiveDomains>* out) {
  Reader r(payload);
  uint64_t num_attrs = 0;
  if (Status s = r.U64(&num_attrs); !s.ok()) return s;
  if (num_attrs != g.schema().num_attrs()) {
    return Corrupt("active-domain attribute count");
  }
  std::unique_ptr<ActiveDomains> a(new ActiveDomains());
  a->num_values_.resize(num_attrs);
  a->str_values_.resize(num_attrs);
  for (size_t i = 0; i < num_attrs; ++i) {
    if (Status s = r.PodVec(&a->num_values_[i]); !s.ok()) return s;
    if (Status s = r.PodVec(&a->str_values_[i]); !s.ok()) return s;
  }
  if (Status s = r.PodVec(&a->ranges_); !s.ok()) return s;
  if (a->ranges_.size() != num_attrs) return Corrupt("active-domain ranges");
  if (!r.AtEnd()) return Corrupt("trailing bytes after active domains");
  *out = std::move(a);
  return Status::OK();
}

// -------- Star tables --------

void Serde::EncodeStarTable(const StarTable& t, Writer& w) {
  const StarQuery& star = t.star_;
  w.U32(star.center);
  w.U64(star.spokes.size());
  for (const StarSpoke& sp : star.spokes) {
    w.U32(sp.other);
    w.U32(sp.bound);
    w.U8(sp.outgoing ? 1 : 0);
  }
  w.U32(static_cast<uint32_t>(star.focus_spoke));
  w.U8(star.contains_focus ? 1 : 0);
  w.U32(star.aug_bound);
  w.U32(t.focus_);

  // A focus role that aliases the center or a spoke set is not repeated.
  if (t.OwnsFocusOccurrences()) w.PodVec(t.focus_occ_);
  w.PodVec(t.center_occ_);
  for (const auto& occ : t.spoke_occ_) w.PodVec(occ);
}

Status Serde::DecodeStarTable(Reader& r, size_t num_nodes,
                              std::shared_ptr<const StarTable>* out) {
  StarQuery star;
  if (Status s = r.U32(&star.center); !s.ok()) return s;
  uint64_t num_spokes = 0;
  if (Status s = r.U64(&num_spokes); !s.ok()) return s;
  if (Status s = r.CheckCount(num_spokes, 9, "star spokes"); !s.ok()) return s;
  star.spokes.resize(num_spokes);
  for (StarSpoke& sp : star.spokes) {
    uint8_t outgoing = 0;
    if (Status s = r.U32(&sp.other); !s.ok()) return s;
    if (Status s = r.U32(&sp.bound); !s.ok()) return s;
    if (Status s = r.U8(&outgoing); !s.ok()) return s;
    sp.outgoing = outgoing != 0;
  }
  uint32_t focus_spoke = 0;
  uint8_t contains_focus = 0;
  if (Status s = r.U32(&focus_spoke); !s.ok()) return s;
  if (Status s = r.U8(&contains_focus); !s.ok()) return s;
  if (Status s = r.U32(&star.aug_bound); !s.ok()) return s;
  star.focus_spoke = static_cast<int32_t>(focus_spoke);
  star.contains_focus = contains_focus != 0;
  if (star.focus_spoke < -1 ||
      star.focus_spoke >= static_cast<int64_t>(num_spokes)) {
    return Corrupt("star focus spoke");
  }
  uint32_t focus = 0;
  if (Status s = r.U32(&focus); !s.ok()) return s;

  auto table = std::make_shared<StarTable>(std::move(star), focus);
  table->spoke_occ_.resize(num_spokes);
  std::vector<std::vector<NodeId>*> sets;
  if (table->OwnsFocusOccurrences()) sets.push_back(&table->focus_occ_);
  sets.push_back(&table->center_occ_);
  for (auto& occ : table->spoke_occ_) sets.push_back(&occ);
  for (std::vector<NodeId>* occ : sets) {
    if (Status s = r.PodVec(occ); !s.ok()) return s;
    // Occurrence sets are probed by binary search: strictly ascending ids
    // of this graph, or the payload is corrupt.
    for (size_t i = 0; i < occ->size(); ++i) {
      if ((*occ)[i] >= num_nodes || (i > 0 && (*occ)[i - 1] >= (*occ)[i])) {
        return Corrupt("occurrence set");
      }
    }
  }
  *out = std::move(table);
  return Status::OK();
}

}  // namespace wqe::store
