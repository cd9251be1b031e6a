#include "obs/analyze.hpp"

#include <sstream>

#include "plan/plan.hpp"

namespace paraquery {

void PlanCapture::Note(const PlanNode& root, const VarTable* vars,
                       const PlanNode* key) {
  // Render outside the lock: RenderAnalyzedPlan only reads the plan, and
  // the executor guarantees one execution of a given root at a time.
  std::string render = RenderAnalyzedPlan(root, vars);
  if (key == nullptr) key = &root;
  std::lock_guard<std::mutex> lock(mutex_);
  for (Entry& e : plans_) {
    if (e.root == key) {
      e.render = std::move(render);
      ++e.executions;
      return;
    }
  }
  if (plans_.size() >= kMaxPlans) {
    ++overflow_;
    return;
  }
  plans_.push_back(Entry{key, std::move(render), 1});
}

void PlanCapture::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  plans_.clear();
  overflow_ = 0;
}

std::string PlanCapture::Report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  for (size_t i = 0; i < plans_.size(); ++i) {
    const Entry& e = plans_[i];
    out << "-- plan " << (i + 1) << " (executions=" << e.executions << ")\n";
    out << e.render;
  }
  if (overflow_ > 0) {
    out << "-- " << overflow_ << " further executions of uncaptured plans\n";
  }
  return out.str();
}

size_t PlanCapture::plan_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plans_.size();
}

}  // namespace paraquery
