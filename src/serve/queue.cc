#include "serve/queue.h"

namespace mqd {

RequestQueue::RequestQueue(size_t stream_capacity, size_t batch_capacity)
    : stream_capacity_(stream_capacity), batch_capacity_(batch_capacity) {}

bool RequestQueue::TryPush(ServeLane lane, QueuedRequest* item) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    std::deque<QueuedRequest>& q =
        lane == ServeLane::kStream ? stream_ : batch_;
    if (q.size() >= capacity(lane)) return false;
    q.push_back(std::move(*item));
  }
  cv_.notify_one();
  return true;
}

bool RequestQueue::PopBlocking(QueuedRequest* out, ServeLane* lane) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (closed_) return false;
    if (!stream_.empty() && !stream_in_service_) {
      *out = std::move(stream_.front());
      stream_.pop_front();
      *lane = ServeLane::kStream;
      stream_in_service_ = true;
      return true;
    }
    if (!batch_.empty()) {
      *out = std::move(batch_.front());
      batch_.pop_front();
      *lane = ServeLane::kBatch;
      return true;
    }
    cv_.wait(lock);
  }
}

void RequestQueue::StreamServiceDone() {
  bool stream_waiting;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stream_in_service_ = false;
    stream_waiting = !stream_.empty();
  }
  // The next queued stream request is now eligible; one worker takes
  // it. With none queued there is nothing new to pop, and the caller
  // goes straight back to PopBlocking itself.
  if (stream_waiting) cv_.notify_one();
}

void RequestQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::vector<std::pair<ServeLane, QueuedRequest>> RequestQueue::DrainAll() {
  std::vector<std::pair<ServeLane, QueuedRequest>> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(stream_.size() + batch_.size());
  for (QueuedRequest& item : stream_) {
    out.emplace_back(ServeLane::kStream, std::move(item));
  }
  stream_.clear();
  for (QueuedRequest& item : batch_) {
    out.emplace_back(ServeLane::kBatch, std::move(item));
  }
  batch_.clear();
  return out;
}

size_t RequestQueue::depth(ServeLane lane) const {
  std::lock_guard<std::mutex> lock(mu_);
  return lane == ServeLane::kStream ? stream_.size() : batch_.size();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

}  // namespace mqd
