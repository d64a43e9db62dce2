// Contended smoke tests for the util/sync.h wrappers: the annotated
// Mutex/MutexLock/CondVar must behave exactly like the std primitives
// they wrap (the annotations are compile-time only). Run under the tsan
// preset these also pin that the wrappers introduce no races of their
// own.

#include "util/sync.h"

#include <chrono>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace xic::util {
namespace {

TEST(MutexTest, ContendedIncrementsAreAllCounted) {
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 10000;
  Mutex mutex;
  int counter = 0;  // guarded by mutex (annotation elided: local test state)
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        MutexLock lock(&mutex);
        ++counter;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  MutexLock lock(&mutex);
  EXPECT_EQ(counter, kThreads * kIncrementsPerThread);
}

TEST(MutexTest, TryLockReportsHeldMutex) {
  Mutex mutex;
  mutex.Lock();
  // A second owner must be refused while the mutex is held. (TryLock on
  // the owning thread would be UB for std::mutex, so probe from another
  // thread.)
  bool acquired = true;
  std::thread prober([&] {
    acquired = mutex.TryLock();
    if (acquired) mutex.Unlock();
  });
  prober.join();
  EXPECT_FALSE(acquired);
  mutex.Unlock();

  std::thread owner([&] {
    ASSERT_TRUE(mutex.TryLock());
    mutex.Unlock();
  });
  owner.join();
}

TEST(MutexLockTest, UnlockRelockCycleGuardsBothSides) {
  // The Unlock()/Lock() hand-off pattern: drop the lock around
  // "blocking" work, retake it after, and let the destructor
  // release only when the scope still owns the mutex.
  Mutex mutex;
  int value = 0;
  {
    MutexLock lock(&mutex);
    value = 1;
    lock.Unlock();
    // Another thread can take the mutex while this scope does not own it.
    std::thread other([&] {
      MutexLock inner(&mutex);
      ++value;
    });
    other.join();
    lock.Lock();
    EXPECT_EQ(value, 2);
  }
  MutexLock lock(&mutex);
  EXPECT_EQ(value, 2);
}

TEST(CondVarTest, ProducerConsumerHandsOffValues) {
  constexpr int kItems = 1000;
  Mutex mutex;
  CondVar ready;
  int available = 0;  // produced but not yet consumed
  bool done = false;
  long long consumed_sum = 0;

  std::thread consumer([&] {
    int consumed = 0;
    while (true) {
      MutexLock lock(&mutex);
      while (available == 0 && !done) ready.Wait(&mutex);
      if (available == 0 && done) return;
      --available;
      consumed_sum += ++consumed;
    }
  });

  for (int i = 0; i < kItems; ++i) {
    {
      MutexLock lock(&mutex);
      ++available;
    }
    ready.NotifyOne();
  }
  {
    MutexLock lock(&mutex);
    done = true;
  }
  ready.NotifyAll();
  consumer.join();

  // Every produced item was consumed exactly once.
  EXPECT_EQ(consumed_sum, static_cast<long long>(kItems) * (kItems + 1) / 2);
  MutexLock lock(&mutex);
  EXPECT_EQ(available, 0);
}

TEST(CondVarTest, WaitForTimesOutWithoutNotify) {
  Mutex mutex;
  CondVar never;
  MutexLock lock(&mutex);
  const auto start = std::chrono::steady_clock::now();
  // Spurious wakeups return true, so loop until the timeout actually
  // expires (bounded by the predicate below, not wall time).
  bool notified = true;
  while (notified &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(5)) {
    notified = never.WaitFor(&mutex, std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(notified);
}

TEST(CondVarTest, WaitForReturnsTrueOnNotify) {
  Mutex mutex;
  CondVar ready;
  bool flag = false;
  std::thread notifier([&] {
    MutexLock lock(&mutex);
    flag = true;
    ready.NotifyAll();
  });
  bool observed = false;
  {
    MutexLock lock(&mutex);
    while (!flag) {
      observed = ready.WaitFor(&mutex, std::chrono::seconds(60));
      if (!observed) break;  // timeout: fail below, don't spin forever
    }
  }
  notifier.join();
  EXPECT_TRUE(flag);
}

}  // namespace
}  // namespace xic::util
