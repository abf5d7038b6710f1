#include "query/query.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <sstream>

namespace wqe {

const char* QueryShapeName(QueryShape s) {
  switch (s) {
    case QueryShape::kStar:
      return "star";
    case QueryShape::kChain:
      return "chain";
    case QueryShape::kTree:
      return "tree";
    case QueryShape::kCyclic:
      return "cyclic";
  }
  return "?";
}

QNodeId PatternQuery::AddNode(LabelId label) {
  QueryNode n;
  n.label = label;
  return AddNode(n);
}

QNodeId PatternQuery::AddNode(const QueryNode& node) {
  nodes_.push_back(node);
  return static_cast<QNodeId>(nodes_.size() - 1);
}

bool PatternQuery::AddEdge(QNodeId from, QNodeId to, uint32_t bound) {
  if (from == to || from >= nodes_.size() || to >= nodes_.size()) return false;
  if (FindEdge(from, to) >= 0) return false;
  edges_.push_back({from, to, bound});
  return true;
}

int PatternQuery::FindEdge(QNodeId from, QNodeId to) const {
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i].from == from && edges_[i].to == to) return static_cast<int>(i);
  }
  return -1;
}

int PatternQuery::FindLiteral(QNodeId u, const Literal& lit) const {
  const auto& lits = nodes_[u].literals;
  for (size_t i = 0; i < lits.size(); ++i) {
    if (lits[i] == lit) return static_cast<int>(i);
  }
  return -1;
}

int PatternQuery::FindLiteral(QNodeId u, AttrId attr, CmpOp op) const {
  const auto& lits = nodes_[u].literals;
  for (size_t i = 0; i < lits.size(); ++i) {
    if (lits[i].attr == attr && lits[i].op == op) return static_cast<int>(i);
  }
  return -1;
}

std::vector<bool> PatternQuery::ActiveMask() const {
  std::vector<bool> active(nodes_.size(), false);
  if (nodes_.empty()) return active;
  std::vector<QNodeId> stack = {focus_};
  active[focus_] = true;
  while (!stack.empty()) {
    QNodeId u = stack.back();
    stack.pop_back();
    for (const QueryEdge& e : edges_) {
      QNodeId other = kNoQNode;
      if (e.from == u) other = e.to;
      if (e.to == u) other = e.from;
      if (other != kNoQNode && !active[other]) {
        active[other] = true;
        stack.push_back(other);
      }
    }
  }
  return active;
}

std::vector<QNodeId> PatternQuery::ActiveNodes() const {
  std::vector<QNodeId> out;
  auto mask = ActiveMask();
  for (QNodeId u = 0; u < mask.size(); ++u) {
    if (mask[u]) out.push_back(u);
  }
  return out;
}

std::vector<size_t> PatternQuery::ActiveEdges() const {
  auto mask = ActiveMask();
  std::vector<size_t> out;
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (mask[edges_[i].from] && mask[edges_[i].to]) out.push_back(i);
  }
  return out;
}

size_t PatternQuery::Size() const {
  auto mask = ActiveMask();
  size_t size = 0;
  for (QNodeId u = 0; u < mask.size(); ++u) {
    if (mask[u]) size += 1 + nodes_[u].literals.size();
  }
  size += ActiveEdges().size();
  return size;
}

uint32_t PatternQuery::QueryDistance(QNodeId u, QNodeId v) const {
  if (u == v) return 0;
  // Dijkstra over the undirected pattern with edge bounds as weights; the
  // pattern has at most a handful of nodes so the simple heap is fine.
  std::vector<uint32_t> dist(nodes_.size(), kNoQueryDist);
  using Item = std::pair<uint32_t, QNodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[u] = 0;
  heap.push({0, u});
  while (!heap.empty()) {
    auto [d, x] = heap.top();
    heap.pop();
    if (d > dist[x]) continue;
    if (x == v) return d;
    for (const QueryEdge& e : edges_) {
      QNodeId other = kNoQNode;
      if (e.from == x) other = e.to;
      if (e.to == x) other = e.from;
      if (other == kNoQNode) continue;
      uint32_t nd = d + e.bound;
      if (nd < dist[other]) {
        dist[other] = nd;
        heap.push({nd, other});
      }
    }
  }
  return dist[v];
}

QueryShape PatternQuery::Shape() const {
  auto mask = ActiveMask();
  auto active_edges = ActiveEdges();
  size_t n = 0;
  for (bool b : mask) n += b;
  if (active_edges.size() >= n) return QueryShape::kCyclic;

  // Tree from here on (connected + |E| = |V|-1). Star: some node is incident
  // to every active edge; chain: all undirected degrees <= 2; else tree.
  std::vector<size_t> deg(nodes_.size(), 0);
  for (size_t i : active_edges) {
    ++deg[edges_[i].from];
    ++deg[edges_[i].to];
  }
  size_t max_deg = 0;
  for (QNodeId u = 0; u < mask.size(); ++u) {
    if (!mask[u]) continue;
    max_deg = std::max(max_deg, deg[u]);
    if (deg[u] == active_edges.size()) return QueryShape::kStar;
  }
  return max_deg <= 2 ? QueryShape::kChain : QueryShape::kTree;
}

std::string PatternQuery::Fingerprint() const {
  auto mask = ActiveMask();
  std::string out = "f";
  out += std::to_string(focus_);
  out += ';';
  std::vector<std::string> keys;
  for (QNodeId u = 0; u < nodes_.size(); ++u) {
    if (!mask[u]) continue;
    out += 'n';
    out += std::to_string(u);
    out += ':';
    out += std::to_string(nodes_[u].label);
    out += '[';
    keys.clear();
    for (const Literal& l : nodes_[u].literals) keys.push_back(LiteralKey(l));
    std::sort(keys.begin(), keys.end());
    for (const auto& l : keys) {
      out += l;
      out += '|';
    }
    out += ']';
  }
  keys.clear();
  for (const QueryEdge& e : edges_) {
    if (!mask[e.from] || !mask[e.to]) continue;
    keys.push_back(std::to_string(e.from) + ">" + std::to_string(e.to) + "@" +
                   std::to_string(e.bound));
  }
  std::sort(keys.begin(), keys.end());
  for (const auto& e : keys) {
    out += 'e';
    out += e;
    out += ';';
  }
  return out;
}

QueryKey QueryKey::Of(const PatternQuery& q) {
  QueryKey key;
  key.text = q.Fingerprint();
  key.hash = std::hash<std::string>{}(key.text);
  return key;
}

std::string PatternQuery::ToString(const Schema& schema) const {
  std::ostringstream out;
  auto mask = ActiveMask();
  out << "Q(focus=u" << focus_ << ") {\n";
  for (QNodeId u = 0; u < nodes_.size(); ++u) {
    if (!mask[u]) continue;
    out << "  u" << u << ": "
        << (nodes_[u].label == kWildcardSymbol ? "⊥"
                                               : schema.LabelName(nodes_[u].label));
    if (!nodes_[u].literals.empty()) {
      out << " where ";
      for (size_t i = 0; i < nodes_[u].literals.size(); ++i) {
        if (i > 0) out << " and ";
        out << nodes_[u].literals[i].ToString(schema);
      }
    }
    out << '\n';
  }
  for (const QueryEdge& e : edges_) {
    if (!mask[e.from] || !mask[e.to]) continue;
    out << "  u" << e.from << " -> u" << e.to << " (bound " << e.bound << ")\n";
  }
  out << "}";
  return out.str();
}

}  // namespace wqe
