// Compile-only fixture for the nodiscard ctests (tests/CMakeLists.txt).
// EFES_DISCARD_STATUS discards a Status, and EFES_DISCARD_RESULT a
// Result<T>, from a free, a member, and a static call. As is, every
// discard must fail to compile with an unused-result error; with
// EFES_DISCARD_WITH_VOID each discard is an explicit (void) cast and the
// file must compile.

#include "efes/common/result.h"
#include "efes/common/status.h"

#ifdef EFES_DISCARD_WITH_VOID
#define EFES_DISCARD (void)
#else
#define EFES_DISCARD
#endif

namespace {

efes::Status FreeStatus() { return efes::Status::OK(); }
efes::Result<int> FreeResult() { return 1; }

struct Store {
  efes::Status MemberStatus() { return efes::Status::OK(); }
  efes::Result<int> MemberResult() { return 2; }
  static efes::Status StaticStatus() { return efes::Status::OK(); }
  static efes::Result<int> StaticResult() { return 3; }
};

}  // namespace

#ifdef EFES_DISCARD_STATUS
void DiscardStatus() {
  Store store;
  EFES_DISCARD FreeStatus();
  EFES_DISCARD store.MemberStatus();
  EFES_DISCARD Store::StaticStatus();
}
#endif

#ifdef EFES_DISCARD_RESULT
void DiscardResult() {
  Store store;
  EFES_DISCARD FreeResult();
  EFES_DISCARD store.MemberResult();
  EFES_DISCARD Store::StaticResult();
}
#endif
