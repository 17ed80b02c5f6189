// Known-bad fixture: clock reads inside a tsg:hot region trip tsg-hot-path;
// the same reads outside one do not.
// Not compiled — consumed by tests/test_tsglint.cc as analyzer input.
#include <chrono>
#include <cstdint>

#include "common/stopwatch.h"

namespace fixture {

std::int64_t g_send_ns = 0;

// tsg:hot
void hotSendTimesEachMessage(int* box, int value) {
  tsg::ScopedCpuTimer timer(g_send_ns);                 // violation
  const auto start = std::chrono::steady_clock::now();  // violation
  *box = value;
  (void)start;
}

void coldFlushTimesTheBatch(int* box, int value) {
  tsg::ScopedCpuTimer timer(g_send_ns);                 // fine: not hot
  const auto start = std::chrono::steady_clock::now();  // fine: not hot
  *box = value;
  (void)start;
}

}  // namespace fixture
