#include "stq/core/types.h"

#include <algorithm>
#include <sstream>

namespace stq {

std::string Update::DebugString() const {
  std::ostringstream os;
  os << "(Q" << query << ", " << static_cast<char>(sign) << "p" << object
     << ")";
  return os.str();
}

void CanonicalizeUpdates(std::vector<Update>* updates) {
  std::sort(updates->begin(), updates->end(), CanonicalUpdateLess);
  DropCancellingPairs(updates);
}

void DropCancellingPairs(std::vector<Update>* updates) {
  // In canonical order a cancelling pair for one (query, object) is
  // adjacent. Compacted in place: this runs once per shard per tick, so a
  // temporary output vector would allocate on every tick.
  size_t w = 0;
  for (size_t i = 0; i < updates->size(); ++i) {
    const Update& u = (*updates)[i];
    if (i + 1 < updates->size()) {
      const Update& v = (*updates)[i + 1];
      if (u.query == v.query && u.object == v.object && u.sign != v.sign) {
        ++i;  // skip both
        continue;
      }
    }
    (*updates)[w++] = u;
  }
  updates->resize(w);
}

}  // namespace stq
