#include "query/query_text.h"

#include <sstream>
#include <vector>

#include "common/text_parse.h"

namespace wqe {

std::string QueryText::ToText(const PatternQuery& q, const Schema& schema) {
  std::ostringstream out;
  out << "wqe-query v1\n";
  out << "focus " << q.focus() << "\n";
  for (QNodeId u = 0; u < q.num_nodes(); ++u) {
    const QueryNode& n = q.node(u);
    out << "node " << u << ' '
        << (n.label == kWildcardSymbol ? "_" : schema.LabelName(n.label)) << "\n";
    for (const Literal& l : n.literals) {
      out << "lit " << u << ' ' << schema.AttrName(l.attr) << ' '
          << CmpOpName(l.op) << ' ';
      if (l.is_wildcard()) {
        out << "any";
      } else if (l.constant.is_num()) {
        out << "num " << l.constant.ToString(schema.strings());
      } else {
        out << "str " << schema.StrName(l.constant.str());
      }
      out << "\n";
    }
  }
  for (const QueryEdge& e : q.edges()) {
    out << "edge " << e.from << ' ' << e.to << ' ' << e.bound << "\n";
  }
  return out.str();
}

Result<PatternQuery> QueryText::Parse(const std::string& text, Schema* schema) {
  PatternQuery q;
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "wqe-query v1") {
    return Status::InvalidArgument("missing 'wqe-query v1' header");
  }
  QNodeId focus = 0;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    const auto f = SplitWs(line);
    if (f.empty() || f[0][0] == '#') continue;
    const std::string where = " at line " + std::to_string(line_no);
    auto bad_number = [&](const std::string& token) {
      return Status::InvalidArgument("bad number '" + token + "'" + where);
    };
    if (f[0] == "focus" && f.size() == 2) {
      if (!ParseU32(f[1], &focus)) return bad_number(f[1]);
    } else if (f[0] == "node" && f.size() >= 3) {
      QNodeId idx = 0;
      if (!ParseU32(f[1], &idx)) return bad_number(f[1]);
      if (idx != q.num_nodes()) {
        return Status::InvalidArgument("node ids must be sequential" + where);
      }
      q.AddNode(f[2] == "_" ? kWildcardSymbol : schema->InternLabel(f[2]));
    } else if (f[0] == "lit" && f.size() >= 5) {
      QNodeId idx = 0;
      if (!ParseU32(f[1], &idx)) return bad_number(f[1]);
      if (idx >= q.num_nodes()) {
        return Status::InvalidArgument("lit references unknown node" + where);
      }
      Literal lit;
      lit.attr = schema->InternAttr(f[2]);
      if (!ParseCmpOp(f[3], &lit.op)) {
        return Status::InvalidArgument("bad comparison operator" + where);
      }
      if (f[4] == "any") {
        lit.constant = Value::Null();
      } else if (f[4] == "num" && f.size() >= 6) {
        double num = 0;
        if (!ParseDouble(f[5], &num)) return bad_number(f[5]);
        lit.constant = Value::Num(num);
      } else if (f[4] == "str" && f.size() >= 6) {
        lit.constant = schema->InternStr(f[5]);
      } else {
        return Status::InvalidArgument("bad literal value" + where);
      }
      q.AddLiteral(idx, lit);
    } else if (f[0] == "edge" && f.size() >= 4) {
      QNodeId from = 0, to = 0;
      uint32_t bound = 0;
      if (!ParseU32(f[1], &from)) return bad_number(f[1]);
      if (!ParseU32(f[2], &to)) return bad_number(f[2]);
      if (!ParseU32(f[3], &bound)) return bad_number(f[3]);
      if (!q.AddEdge(from, to, bound)) {
        return Status::InvalidArgument("bad edge" + where);
      }
    } else {
      return Status::InvalidArgument("unknown record '" + f[0] + "'" + where);
    }
  }
  if (focus >= q.num_nodes()) {
    return Status::InvalidArgument("focus references unknown node");
  }
  q.SetFocus(focus);
  return q;
}

}  // namespace wqe
