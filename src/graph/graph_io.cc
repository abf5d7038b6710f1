#include "graph/graph_io.h"

#include <fstream>
#include <sstream>
#include <vector>

#include "common/text_parse.h"

namespace wqe {

namespace {

std::vector<std::string_view> SplitTabs(std::string_view line) {
  std::vector<std::string_view> fields;
  size_t start = 0;
  while (start <= line.size()) {
    size_t tab = line.find('\t', start);
    if (tab == std::string_view::npos) {
      fields.push_back(line.substr(start));
      break;
    }
    fields.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
  return fields;
}

/// Tolerate files written on Windows: getline leaves the '\r' of a CRLF
/// terminator on the line, which would otherwise corrupt the last field (or
/// reject the header).
void StripCr(std::string* line) {
  if (!line->empty() && line->back() == '\r') line->pop_back();
}

}  // namespace

std::string GraphIo::ToString(const Graph& g) {
  std::ostringstream out;
  out << "wqe-graph v1\n";
  const Schema& schema = g.schema();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out << "node\t" << v << '\t' << schema.LabelName(g.label(v));
    if (!g.name(v).empty()) out << '\t' << g.name(v);
    out << '\n';
    for (const AttrPair& pair : g.attrs(v)) {
      out << "attr\t" << v << '\t' << schema.AttrName(pair.attr) << '\t';
      if (pair.value.is_num()) {
        out << "num\t" << pair.value.ToString(schema.strings());
      } else {
        out << "str\t" << schema.StrName(pair.value.str());
      }
      out << '\n';
    }
  }
  const GraphView& view = g.view();
  for (size_t i = 0; i < view.edge_to.size(); ++i) {
    out << "edge\t" << view.edge_from[i] << '\t' << view.edge_to[i];
    if (view.edge_labels[i] != kWildcardSymbol) {
      out << '\t' << schema.EdgeLabelName(view.edge_labels[i]);
    }
    out << '\n';
  }
  return out.str();
}

Result<Graph> GraphIo::FromString(const std::string& text) {
  Graph g;
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("missing 'wqe-graph v1' header");
  }
  StripCr(&line);
  if (line != "wqe-graph v1") {
    return Status::InvalidArgument("missing 'wqe-graph v1' header");
  }
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    StripCr(&line);
    if (line.empty() || line[0] == '#') continue;
    auto f = SplitTabs(line);
    const std::string where = " at line " + std::to_string(line_no);
    if (f[0] == "node") {
      // Every malformed id shape gets its own diagnostic: the loader is the
      // only guard between untrusted files and the dense-id invariants the
      // adjacency arrays assume.
      if (f.size() < 3) {
        return Status::InvalidArgument("truncated node line" + where);
      }
      uint32_t id;
      if (!ParseU32(f[1], &id)) {
        return Status::InvalidArgument("non-numeric node id '" +
                                       std::string(f[1]) + "'" + where);
      }
      if (id < g.num_nodes()) {
        return Status::InvalidArgument("duplicate node id " +
                                       std::to_string(id) + where);
      }
      if (id > g.num_nodes()) {
        return Status::InvalidArgument(
            "out-of-order node id " + std::to_string(id) + " (expected " +
            std::to_string(g.num_nodes()) + ")" + where);
      }
      g.AddNode(f[2], f.size() > 3 ? f[3] : std::string_view());
    } else if (f[0] == "attr") {
      if (f.size() < 5) {
        return Status::InvalidArgument("truncated attr line" + where);
      }
      uint32_t id;
      if (!ParseU32(f[1], &id)) {
        return Status::InvalidArgument("non-numeric node id '" +
                                       std::string(f[1]) + "'" + where);
      }
      if (id >= g.num_nodes()) {
        return Status::InvalidArgument("attr references unknown node " +
                                       std::to_string(id) + where);
      }
      if (f[3] == "num") {
        double num;
        if (!ParseDouble(f[4], &num)) {
          return Status::InvalidArgument("bad numeric value '" +
                                         std::string(f[4]) + "'" + where);
        }
        g.SetNum(id, f[2], num);
      } else if (f[3] == "str") {
        g.SetStr(id, f[2], f[4]);
      } else {
        return Status::InvalidArgument("unknown value kind '" +
                                       std::string(f[3]) + "'" + where);
      }
    } else if (f[0] == "edge") {
      if (f.size() < 3) {
        return Status::InvalidArgument("truncated edge line" + where);
      }
      uint32_t from, to;
      if (!ParseU32(f[1], &from) || !ParseU32(f[2], &to)) {
        return Status::InvalidArgument("non-numeric edge endpoint" + where);
      }
      if (from >= g.num_nodes() || to >= g.num_nodes()) {
        return Status::InvalidArgument("edge references unknown node" + where);
      }
      LabelId elabel = kWildcardSymbol;
      if (f.size() > 3 && !f[3].empty()) elabel = g.schema().InternEdgeLabel(f[3]);
      g.AddEdge(from, to, elabel);
    } else {
      return Status::InvalidArgument("unknown record '" + std::string(f[0]) +
                                     "'" + where);
    }
  }
  g.Finalize();
  return g;
}

Status GraphIo::Save(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot open for write: " + path);
  out << ToString(g);
  return out.good() ? Status::OK() : Status::InvalidArgument("write failed: " + path);
}

Result<Graph> GraphIo::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::InvalidArgument("read error on: " + path);
  return FromString(buf.str());
}

}  // namespace wqe
