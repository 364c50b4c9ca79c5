// Fiber: a stackful coroutine that runs one served query.
//
// Resume() switches onto the fiber's stack and runs it until the body calls
// Yield() or returns; Yield() switches back to the Resume() caller. Built on
// glibc makecontext/swapcontext, so synchronous code (SPR and every
// baseline) runs unmodified. Each fiber owns an 8 MiB stack (the default
// pthread stack size) with a PROT_NONE guard page below it, mmap'd by the
// constructor, unmapped by the destructor and touched lazily. There is no
// process-global "current fiber": code that yields holds its Fiber, so
// replays stepping their own fibers on different OS threads (one per shard
// under shard::ShardRouter) never see each other. Under ASan and TSAN every
// switch is announced to the sanitizer runtime.

#ifndef CROWDTOPK_SERVE_FIBER_H_
#define CROWDTOPK_SERVE_FIBER_H_

#include <ucontext.h>

#include <cstddef>
#include <functional>

namespace crowdtopk::serve {

class Fiber {
 public:
  // Maps the stack; `body` starts on the first Resume(). An exception
  // escaping `body` terminates the program, as it would on a thread.
  explicit Fiber(std::function<void()> body);
  // Must not run inside the fiber. Destroying an unfinished fiber skips the
  // destructors of the objects still on its stack.
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Runs the fiber until it yields or its body returns; true once the body
  // has returned. A finished fiber must not be resumed again.
  bool Resume();

  // Inside the fiber: suspends it and returns to the Resume() caller.
  void Yield();

 private:
  static void Entry(unsigned int self_high, unsigned int self_low);

  std::function<void()> body_;
  void* mapping_ = nullptr;  // guard page + stack
  char* stack_ = nullptr;    // lowest usable stack address
  size_t mapping_bytes_ = 0;
  ucontext_t context_;
  ucontext_t caller_;
  bool running_ = false;
  bool finished_ = false;
  // Sanitizer bookkeeping; unused in plain builds.
  const void* caller_stack_ = nullptr;
  size_t caller_stack_bytes_ = 0;
  void* tsan_fiber_ = nullptr;
  void* tsan_caller_ = nullptr;
};

}  // namespace crowdtopk::serve

#endif  // CROWDTOPK_SERVE_FIBER_H_
