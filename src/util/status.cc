#include "util/status.h"

namespace xic {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kValidationError:
      return "ValidationError";
    case StatusCode::kNotSupported:
      return "NotSupported";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

Status::Status(StatusCode code, std::string message) {
  if (code != StatusCode::kOk) {
    rep_.reset(new Rep{code, std::move(message), std::string()});
  }
}

void Status::RepDeleter::operator()(Rep* rep) const { delete rep; }

const std::string& Status::EmptyString() {
  // Never destroyed: a status may still be read during static destruction.
  static const std::string* const empty = new std::string();
  return *empty;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(rep_->code);
  out += ": ";
  out += rep_->message;
  return out;
}

}  // namespace xic
