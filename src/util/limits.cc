#include "util/limits.h"

namespace xic {

ResourceLimits ResourceLimits::Unlimited() {
  ResourceLimits limits;
  limits.max_document_bytes = 0;
  limits.max_tree_depth = 0;
  limits.max_attributes_per_element = 0;
  limits.max_expansion_bytes = 0;
  limits.max_content_model_depth = 0;
  limits.max_automaton_states = 0;
  limits.max_solver_steps = 0;
  return limits;
}

Status LimitExceededStatus(size_t value, size_t limit, const char* limit_name,
                           std::string_view what) {
  return Status::LimitExceeded(
      limit_name, std::string(what) + " (" + std::to_string(value) +
                      " exceeds limit " + std::to_string(limit) + ")");
}

Status Deadline::Check(const char* what) const {
  if (expired()) {
    return Status::DeadlineExceeded(std::string(what) +
                                    ": deadline exceeded");
  }
  return Status::OK();
}

}  // namespace xic
