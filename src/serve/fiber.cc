#include "serve/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <utility>

#include "util/check.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace crowdtopk::serve {
namespace {

constexpr size_t kStackBytes = size_t{8} << 20;

// Sanitizer fiber-switch hooks; no-ops in plain builds.
#if defined(__SANITIZE_ADDRESS__)
void AsanStart(void** save, const void* stack, size_t bytes) {
  __sanitizer_start_switch_fiber(save, stack, bytes);
}
void AsanFinish(void* save, const void** stack, size_t* bytes) {
  __sanitizer_finish_switch_fiber(save, stack, bytes);
}
#else
void AsanStart(void**, const void*, size_t) {}
void AsanFinish(void*, const void**, size_t*) {}
#endif
#if defined(__SANITIZE_THREAD__)
void* TsanCurrent() { return __tsan_get_current_fiber(); }
// Inlined: an out-of-line wrapper's TSAN exit hook would run after the
// switch, against the other fiber's shadow stack.
[[gnu::always_inline]] inline void TsanSwitch(void* fiber) {
  __tsan_switch_to_fiber(fiber, 0);
}
#else
void* TsanCurrent() { return nullptr; }
void TsanSwitch(void*) {}
#endif

}  // namespace

Fiber::Fiber(std::function<void()> body) : body_(std::move(body)) {
  const size_t guard = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  mapping_bytes_ = guard + kStackBytes;
  mapping_ = mmap(nullptr, mapping_bytes_, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1,
                  0);
  CROWDTOPK_CHECK(mapping_ != MAP_FAILED);
  // Stacks grow down: an overflow runs into the guard page and faults.
  CROWDTOPK_CHECK_EQ(mprotect(mapping_, guard, PROT_NONE), 0);
  stack_ = static_cast<char*>(mapping_) + guard;

  CROWDTOPK_CHECK_EQ(getcontext(&context_), 0);
  context_.uc_stack.ss_sp = stack_;
  context_.uc_stack.ss_size = kStackBytes;
  context_.uc_link = nullptr;  // Entry never returns; it jumps out
  // makecontext passes int-sized arguments only: split the pointer.
  const auto self = reinterpret_cast<uintptr_t>(this);
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::Entry), 2,
              static_cast<unsigned int>(self >> 32),
              static_cast<unsigned int>(self));
#if defined(__SANITIZE_THREAD__)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  CROWDTOPK_CHECK(!running_);
#if defined(__SANITIZE_THREAD__)
  __tsan_destroy_fiber(tsan_fiber_);
#endif
#if defined(__SANITIZE_ADDRESS__)
  // Frames abandoned by the final jump stay poisoned; clear them so a
  // later mapping at this address starts clean.
  __asan_unpoison_memory_region(stack_, kStackBytes);
#endif
  munmap(mapping_, mapping_bytes_);
}

bool Fiber::Resume() {
  CROWDTOPK_CHECK(!running_ && !finished_);
  running_ = true;
  void* fake_stack = nullptr;
  AsanStart(&fake_stack, stack_, kStackBytes);
  tsan_caller_ = TsanCurrent();
  TsanSwitch(tsan_fiber_);
  CROWDTOPK_CHECK_EQ(swapcontext(&caller_, &context_), 0);
  AsanFinish(fake_stack, nullptr, nullptr);
  running_ = false;
  return finished_;
}

void Fiber::Yield() {
  CROWDTOPK_CHECK(running_);
  void* fake_stack = nullptr;
  AsanStart(&fake_stack, caller_stack_, caller_stack_bytes_);
  TsanSwitch(tsan_caller_);
  CROWDTOPK_CHECK_EQ(swapcontext(&context_, &caller_), 0);
  AsanFinish(fake_stack, &caller_stack_, &caller_stack_bytes_);
}

void Fiber::Entry(unsigned int self_high, unsigned int self_low) {
  Fiber* self = reinterpret_cast<Fiber*>(
      (static_cast<uintptr_t>(self_high) << 32) | self_low);
  AsanFinish(nullptr, &self->caller_stack_, &self->caller_stack_bytes_);
  self->body_();
  self->finished_ = true;
  // Leave for good (a null save slot tells ASan this stack is done). Jump
  // rather than return: nothing instrumented may run after the TSAN switch.
  AsanStart(nullptr, self->caller_stack_, self->caller_stack_bytes_);
  TsanSwitch(self->tsan_caller_);
  setcontext(&self->caller_);
  std::abort();  // setcontext returns only on failure
}

}  // namespace crowdtopk::serve
