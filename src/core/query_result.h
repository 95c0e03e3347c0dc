#ifndef XONTORANK_CORE_QUERY_RESULT_H_
#define XONTORANK_CORE_QUERY_RESULT_H_

#include <vector>

#include "xml/dewey_id.h"

namespace xontorank {

/// One query result: the most specific element whose subtree is associated
/// with every query keyword (Eq. 1), with its overall score (Eq. 4) and the
/// per-keyword subtree scores it aggregates (Eq. 3).
struct QueryResult {
  DeweyId element;
  double score = 0.0;
  std::vector<double> keyword_scores;
};

}  // namespace xontorank

#endif  // XONTORANK_CORE_QUERY_RESULT_H_
