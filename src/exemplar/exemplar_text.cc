#include "exemplar/exemplar_text.h"

#include <sstream>
#include <string_view>
#include <vector>

#include "common/text_parse.h"

namespace wqe {

namespace {

// Parses "t<i>.<attr>" into a VarRef; returns false on malformed input.
bool ParseVarRef(const std::string& s, Schema* schema, VarRef* out) {
  if (s.size() < 4 || s[0] != 't') return false;
  const size_t dot = s.find('.');
  if (dot == std::string::npos || dot < 2) return false;
  if (!ParseU32(std::string_view(s).substr(1, dot - 1), &out->tuple)) {
    return false;
  }
  out->attr = schema->InternAttr(s.substr(dot + 1));
  return true;
}

// Parses a cell payload: a number, "str:<text>", or "?" (wildcard).
bool ParseCellValue(const std::string& s, Schema* schema, Value* out,
                    bool* is_wildcard) {
  *is_wildcard = false;
  if (s == "?" || s == "_") {
    *is_wildcard = true;
    return true;
  }
  if (s.rfind("str:", 0) == 0) {
    *out = schema->InternStr(s.substr(4));
    return true;
  }
  double num = 0;
  if (!ParseDouble(s, &num)) return false;
  *out = Value::Num(num);
  return true;
}

}  // namespace

std::string ExemplarText::ToText(const Exemplar& e, const Schema& schema) {
  std::ostringstream out;
  out << "wqe-exemplar v1\n";
  for (const TuplePattern& t : e.tuples()) {
    out << "tuple";
    for (const PatternCell& cell : t.cells()) {
      out << ' ' << schema.AttrName(cell.attr) << '=';
      if (!cell.is_constant()) {
        out << '?';
      } else if (cell.constant.is_str()) {
        out << "str:" << schema.StrName(cell.constant.str());
      } else {
        out << schema.ValueToString(cell.constant);
      }
    }
    out << '\n';
  }
  for (const ConstraintLiteral& c : e.constraints()) {
    out << "where t" << c.lhs.tuple << '.' << schema.AttrName(c.lhs.attr) << ' '
        << CmpOpName(c.op) << ' ';
    if (c.kind == ConstraintLiteral::Kind::kVarVar) {
      out << 't' << c.rhs.tuple << '.' << schema.AttrName(c.rhs.attr);
    } else if (c.constant.is_str()) {
      out << "str:" << schema.StrName(c.constant.str());
    } else {
      out << schema.ValueToString(c.constant);
    }
    out << '\n';
  }
  return out.str();
}

Result<Exemplar> ExemplarText::Parse(const std::string& text, Schema* schema) {
  Exemplar e;
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "wqe-exemplar v1") {
    return Status::InvalidArgument("missing 'wqe-exemplar v1' header");
  }
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    const auto f = SplitWs(line);
    if (f.empty() || f[0][0] == '#') continue;
    const std::string where = " at line " + std::to_string(line_no);

    if (f[0] == "tuple") {
      TuplePattern t;
      for (size_t i = 1; i < f.size(); ++i) {
        const size_t eq = f[i].find('=');
        if (eq == std::string::npos || eq == 0) {
          return Status::InvalidArgument("bad cell '" + f[i] + "'" + where);
        }
        const AttrId attr = schema->InternAttr(f[i].substr(0, eq));
        Value value;
        bool wildcard = false;
        if (!ParseCellValue(f[i].substr(eq + 1), schema, &value, &wildcard)) {
          return Status::InvalidArgument("bad cell value '" + f[i] + "'" + where);
        }
        if (wildcard) {
          t.SetWildcard(attr);
        } else {
          t.SetConstant(attr, value);
        }
      }
      e.AddTuple(std::move(t));
    } else if (f[0] == "where") {
      if (f.size() != 4) {
        return Status::InvalidArgument("bad constraint" + where);
      }
      VarRef lhs;
      if (!ParseVarRef(f[1], schema, &lhs)) {
        return Status::InvalidArgument("bad variable reference '" + f[1] + "'" +
                                       where);
      }
      if (lhs.tuple >= e.tuples().size()) {
        return Status::InvalidArgument("constraint references unknown tuple" +
                                       where);
      }
      CmpOp op;
      if (!ParseCmpOp(f[2], &op)) {
        return Status::InvalidArgument("bad comparison operator" + where);
      }
      VarRef rhs;
      if (ParseVarRef(f[3], schema, &rhs)) {
        if (rhs.tuple >= e.tuples().size()) {
          return Status::InvalidArgument("constraint references unknown tuple" +
                                         where);
        }
        e.AddConstraint(ConstraintLiteral::VarVar(lhs, op, rhs));
      } else {
        Value value;
        bool wildcard = false;
        if (!ParseCellValue(f[3], schema, &value, &wildcard) || wildcard) {
          return Status::InvalidArgument("bad constraint constant" + where);
        }
        e.AddConstraint(ConstraintLiteral::VarConst(lhs, op, value));
      }
    } else {
      return Status::InvalidArgument("unknown record '" + f[0] + "'" + where);
    }
  }
  if (e.tuples().empty()) {
    return Status::InvalidArgument("exemplar declares no tuple patterns");
  }
  return e;
}

}  // namespace wqe
