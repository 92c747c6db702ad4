#include "sched/packing_policy.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>

namespace xmem::sched {

void PackingPolicy::reorder(std::vector<std::size_t>& order,
                            const std::vector<std::int64_t>&) const {
  (void)order;  // queue order stands
}

std::int64_t PackingPolicy::commit_bytes(std::int64_t demand_bytes,
                                         const SlotState&) const {
  return demand_bytes;
}

namespace {

/// Scan in slot order, take the first fit. Also the slot chooser the
/// whole-gpu baseline inherits (its commit override makes "fits" mean
/// "empty").
class FirstFitPolicy : public PackingPolicy {
 public:
  int choose(const std::vector<SlotState>& slots,
             const std::vector<std::int64_t>& demand_bytes) const override {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (commit_bytes(demand_bytes[i], slots[i]) <= slots[i].free_bytes()) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
};

/// One job per GPU: commit the whole budget, or the demand when it is
/// larger, so a job that fits no card is never admitted. The conservative
/// baseline the paper's §1 motivates replacing.
class WholeGpuPolicy : public FirstFitPolicy {
 public:
  std::int64_t commit_bytes(std::int64_t demand_bytes,
                            const SlotState& slot) const override {
    return std::max(demand_bytes, slot.budget);
  }
};

/// Classic best-fit-decreasing: each priority class packs its largest
/// demands first, and every job lands on the feasible slot with the least
/// leftover space.
class BestFitDecreasingPolicy : public PackingPolicy {
 public:
  void reorder(std::vector<std::size_t>& order,
               const std::vector<std::int64_t>& predicted_bytes)
      const override {
    // `order` is already priority-major; a stable sort on bytes descending
    // keeps the priority classes intact and breaks byte ties by arrival.
    std::stable_sort(order.begin(), order.end(),
                     [&predicted_bytes](std::size_t a, std::size_t b) {
                       return predicted_bytes[a] > predicted_bytes[b];
                     });
  }

  bool order_preserving() const override { return false; }

  int choose(const std::vector<SlotState>& slots,
             const std::vector<std::int64_t>& demand_bytes) const override {
    int best = -1;
    std::int64_t best_leftover = 0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const std::int64_t leftover = slots[i].free_bytes() - demand_bytes[i];
      if (leftover < 0) continue;
      if (best < 0 || leftover < best_leftover) {
        best = static_cast<int>(i);
        best_leftover = leftover;
      }
    }
    return best;
  }
};

struct Registration {
  std::string description;
  PackingPolicyFactory factory;
};

struct Registry {
  std::mutex mutex;
  std::map<std::string, Registration> entries;

  Registry() {
    entries["first-fit"] = {
        "predicted peak + headroom, first GPU that fits (queue order)",
        [] { return std::make_unique<FirstFitPolicy>(); }};
    entries["best-fit-decreasing"] = {
        "largest demands first, tightest feasible GPU (classic BFD)",
        [] { return std::make_unique<BestFitDecreasingPolicy>(); }};
    entries["whole-gpu"] = {
        "one job per GPU regardless of estimate (conservative baseline)",
        [] { return std::make_unique<WholeGpuPolicy>(); }};
  }
};

Registry& registry() {
  static Registry instance;
  return instance;
}

std::string known_names_message() {
  std::string names;
  for (const std::string& name : packing_policy_names()) {
    if (!names.empty()) names += ", ";
    names += name;
  }
  return names;
}

}  // namespace

void register_packing_policy(const std::string& name,
                             const std::string& description,
                             PackingPolicyFactory factory) {
  if (name.empty()) {
    throw std::invalid_argument("register_packing_policy: empty name");
  }
  if (!factory) {
    throw std::invalid_argument("register_packing_policy: null factory for '" +
                                name + "'");
  }
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  if (reg.entries.count(name) > 0) {
    throw std::invalid_argument("register_packing_policy: duplicate name '" +
                                name + "'");
  }
  reg.entries.emplace(name, Registration{description, std::move(factory)});
}

bool is_known_packing_policy(const std::string& name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  return reg.entries.count(name) > 0;
}

std::vector<std::string> packing_policy_names() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<std::string> names;
  names.reserve(reg.entries.size());
  for (const auto& [name, entry] : reg.entries) names.push_back(name);
  return names;  // std::map iterates sorted
}

std::string packing_policy_description(const std::string& name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  const auto it = reg.entries.find(name);
  if (it == reg.entries.end()) return std::string();
  return it->second.description;
}

std::unique_ptr<PackingPolicy> make_packing_policy(const std::string& name) {
  Registry& reg = registry();
  PackingPolicyFactory factory;
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    const auto it = reg.entries.find(name);
    if (it != reg.entries.end()) factory = it->second.factory;
  }
  if (!factory) {
    throw std::invalid_argument("unknown packing policy '" + name +
                                "' (known: " + known_names_message() + ")");
  }
  return factory();
}

}  // namespace xmem::sched
