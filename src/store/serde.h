#ifndef WQE_STORE_SERDE_H_
#define WQE_STORE_SERDE_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "store/format.h"

namespace wqe {

class ActiveDomains;
class Graph;
class Schema;
class StarTable;

namespace store {

/// Payload encoders/decoders: the canonical graph encoding (the basis of
/// `GraphFingerprint`), the schema and active domains the mmap bundle's meta
/// block carries, and the persisted star-view tables. Encoders walk the live
/// structures (via friendship where the fields are private) and emit the
/// canonical little-endian byte layout; decoders bounds-check every field,
/// validate all ids against the graph they are being restored for, and return
/// Status on any inconsistency so a corrupt payload degrades to a rebuild.
///
/// Encodings are deterministic: the same finalized graph always produces the
/// same bytes, which is what makes `GraphFingerprint` a usable artifact key
/// and lets the round-trip tests demand byte-identical re-encodes.
class Serde {
 public:
  /// FNV-1a over the canonical graph encoding: schema symbol tables, node
  /// labels/names/attribute tuples, and the edge list. Any observable change
  /// to the graph changes the fingerprint, so stale artifacts are rejected
  /// by the container's key check.
  static uint64_t GraphFingerprint(const Graph& g);

  // -------- Schema --------
  /// The four interner symbol tables (labels, edge labels, attrs, strings),
  /// in the order the graph payload has always carried them. Shared with the
  /// mmap bundle's meta block, which heap-decodes the (small) schema while
  /// mapping the big columns zero-copy.
  static void EncodeSchema(const Schema& schema, Writer& w);
  static Status DecodeSchema(Reader& r, Schema* out);

  // -------- Graph --------
  static std::string EncodeGraph(const Graph& g);

  // -------- Active domains --------
  static std::string EncodeAdom(const ActiveDomains& a);
  static Status DecodeAdom(std::string_view payload, const Graph& g,
                           std::unique_ptr<ActiveDomains>* out);

  // -------- Star tables --------
  static void EncodeStarTable(const StarTable& t, Writer& w);
  /// `num_nodes` bounds every decoded NodeId (tables index graph arrays, so
  /// a corrupt id must be caught here, not downstream).
  static Status DecodeStarTable(Reader& r, size_t num_nodes,
                                std::shared_ptr<const StarTable>* out);
};

}  // namespace store
}  // namespace wqe

#endif  // WQE_STORE_SERDE_H_
