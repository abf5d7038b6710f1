#include "exemplar/closeness.h"

#include <algorithm>

#include "exemplar/similarity.h"

namespace wqe {

namespace {

/// Σ over t's cells of the cell score, divided by the cell count: the shape
/// of cl(v, t). A constant string cell whose interned id differs from v's
/// value scores `str_score(v's string, the constant)`; every other cell
/// scores exactly as in cl(v, t).
template <typename StrScore>
double CellAverage(const Graph& g, const ActiveDomains& adom, NodeId v,
                   const TuplePattern& t, StrScore&& str_score) {
  if (t.num_cells() == 0) return 1.0;
  const Interner& strings = g.schema().strings();
  double total = 0;
  for (const PatternCell& cell : t.cells()) {
    if (!cell.is_constant()) {
      total += 1.0;
      continue;
    }
    const Value* val = g.attr(v, cell.attr);
    if (val == nullptr) continue;  // contributes 0
    if (val->is_str() && cell.constant.is_str() &&
        val->str() != cell.constant.str()) {
      total += str_score(strings.Name(val->str()),
                         strings.Name(cell.constant.str()));
    } else {
      total += ValueSimilarity(*val, cell.constant, adom.Range(cell.attr),
                               strings);
    }
  }
  return total / static_cast<double>(t.num_cells());
}

}  // namespace

double ClosenessEvaluator::ClNodeTuple(NodeId v, const TuplePattern& t) const {
  return CellAverage(g_, adom_, v, t, StrSimilarity);
}

bool ClosenessEvaluator::Vsim(NodeId v, const TuplePattern& t) const {
  // Two different strings are at edit distance >= 1, so their similarity is
  // at most 1 − 1/max(|a|, |b|). Float addition and division are monotone,
  // so the average with that bound in place of each such cell is >= cl(v,
  // t): below θ it settles the verdict without a Levenshtein run.
  bool bounded = false;
  const double bound = CellAverage(
      g_, adom_, v, t, [&](const std::string& a, const std::string& b) {
        if (a == b) return 1.0;
        bounded = true;
        return 1.0 - 1.0 / static_cast<double>(std::max(a.size(), b.size()));
      });
  if (bound < config_.theta) return false;
  return !bounded || ClNodeTuple(v, t) >= config_.theta;
}

double ClosenessEvaluator::ClNodeExemplar(NodeId v, const Exemplar& e) const {
  double best = 0;
  for (const TuplePattern& t : e.tuples()) {
    const double cl = ClNodeTuple(v, t);
    if (cl >= config_.theta) best = std::max(best, cl);
  }
  return best;
}

}  // namespace wqe
