#include "efes/serve/admission.h"

#include <utility>

#include "efes/common/metrics.h"

namespace efes {

AdmissionController::AdmissionController(AdmissionOptions options)
    : max_queue_(options.max_queue) {
  size_t workers = options.workers == 0 ? 1 : options.workers;
  MetricsRegistry::Global().GetGauge("serve.admission.workers")
      .Set(static_cast<double>(workers));
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AdmissionController::~AdmissionController() { AwaitDrain(); }

Status AdmissionController::Admit(std::string strand, Task task) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      metrics.GetCounter("serve.admission.rejected_draining").Increment();
      return Status::Unavailable(
          "server is draining and refuses new requests");
    }
    if (queued_count_ >= max_queue_) {
      metrics.GetCounter("serve.admission.rejected_overload").Increment();
      return Status::ResourceExhausted(
          "admission queue full (" + std::to_string(max_queue_) +
          " requests waiting)");
    }
    ++queued_count_;
    ++outstanding_;
    Queued item{std::move(task), std::move(strand)};
    if (!item.strand.empty() && strand_active_.count(item.strand) > 0) {
      strand_waiting_[item.strand].push_back(std::move(item));
    } else {
      if (!item.strand.empty()) strand_active_.insert(item.strand);
      ready_.push_back(std::move(item));
    }
    metrics.GetCounter("serve.admission.admitted").Increment();
  }
  work_cv_.notify_one();
  return Status::OK();
}

void AdmissionController::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !ready_.empty(); });
    if (ready_.empty()) return;  // stop_, and nothing left to run
    Queued item = std::move(ready_.front());
    ready_.pop_front();
    --queued_count_;
    lock.unlock();
    item.task();
    lock.lock();
    --outstanding_;
    // Strand handoff: release the next same-session task, preserving
    // admission order.
    if (!item.strand.empty()) {
      auto it = strand_waiting_.find(item.strand);
      if (it != strand_waiting_.end() && !it->second.empty()) {
        ready_.push_back(std::move(it->second.front()));
        it->second.pop_front();
        if (it->second.empty()) strand_waiting_.erase(it);
        work_cv_.notify_one();
      } else {
        if (it != strand_waiting_.end()) strand_waiting_.erase(it);
        strand_active_.erase(item.strand);
      }
    }
    idle_cv_.notify_all();
  }
}

void AdmissionController::BeginDrain() {
  std::lock_guard<std::mutex> lock(mutex_);
  draining_ = true;
}

void AdmissionController::AwaitDrain() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    draining_ = true;
    if (joined_) return;
    joined_ = true;
    idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool AdmissionController::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

size_t AdmissionController::queued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_count_;
}

}  // namespace efes
