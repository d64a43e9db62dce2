#include "analysis/diagnostic.h"

#include <algorithm>

#include "util/json_writer.h"

namespace xic {

const char* DiagSeverityToString(DiagSeverity severity) {
  switch (severity) {
    case DiagSeverity::kError:
      return "error";
    case DiagSeverity::kWarning:
      return "warning";
    case DiagSeverity::kInfo:
      return "info";
  }
  return "unknown";
}

std::string Diagnostic::ToString() const {
  std::string out = std::string(DiagSeverityToString(severity)) + "[" + code +
                    "] " + rule + ": " + message;
  if (location.constraint_index >= 0) {
    out += "  (constraint #" + std::to_string(location.constraint_index);
    if (location.line > 0) {
      out += " at " + std::to_string(location.line) + ":" +
             std::to_string(location.column);
    }
    out += ")";
  } else if (!location.element.empty()) {
    out += "  (element " + location.element + ")";
  }
  for (const std::string& note : notes) {
    out += "\n    note: " + note;
  }
  return out;
}

size_t AnalysisReport::CountSeverity(DiagSeverity severity) const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == severity) ++n;
  }
  return n;
}

int AnalysisReport::ExitCode() const {
  if (!status.ok()) return 3;
  if (errors() > 0) return 2;
  if (!diagnostics.empty()) return 1;
  return 0;
}

std::string AnalysisReport::ToString() const {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += d.ToString() + "\n";
  }
  if (!status.ok()) {
    out += "analysis incomplete: " + status.ToString() + "\n";
  }
  out += std::to_string(errors()) + " error(s), " +
         std::to_string(warnings()) + " warning(s), " +
         std::to_string(CountSeverity(DiagSeverity::kInfo)) + " info(s)\n";
  return out;
}

namespace {

std::string Quoted(const std::string& text) {
  return "\"" + util::JsonWriter::Escape(text) + "\"";
}

}  // namespace

std::string AnalysisReport::ToJson() const {
  std::string out = "{\n";
  out += "  \"version\": 1,\n";
  out += "  \"language\": " + Quoted(language) + ",\n";
  out += "  \"status\": " + Quoted(status.ToString()) + ",\n";
  out += "  \"rules\": [";
  for (size_t i = 0; i < rules_run.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quoted(rules_run[i]);
  }
  out += "],\n";
  out += "  \"summary\": {\"errors\": " + std::to_string(errors()) +
         ", \"warnings\": " + std::to_string(warnings()) +
         ", \"infos\": " + std::to_string(CountSeverity(DiagSeverity::kInfo)) +
         "},\n";
  out += "  \"diagnostics\": [";
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    out += (i > 0) ? ",\n    {" : "\n    {";
    out += "\n      \"code\": " + Quoted(d.code) + ",";
    out += "\n      \"rule\": " + Quoted(d.rule) + ",";
    out += "\n      \"severity\": " +
           Quoted(DiagSeverityToString(d.severity)) + ",";
    out += "\n      \"message\": " + Quoted(d.message);
    if (d.location.constraint_index >= 0) {
      out += ",\n      \"constraint\": " +
             std::to_string(d.location.constraint_index);
    }
    if (d.location.line > 0) {
      out += ",\n      \"line\": " + std::to_string(d.location.line) +
             ",\n      \"column\": " + std::to_string(d.location.column);
    }
    if (!d.location.element.empty()) {
      out += ",\n      \"element\": " + Quoted(d.location.element);
    }
    if (!d.notes.empty()) {
      out += ",\n      \"notes\": [";
      for (size_t j = 0; j < d.notes.size(); ++j) {
        if (j > 0) out += ", ";
        out += Quoted(d.notes[j]);
      }
      out += "]";
    }
    out += "\n    }";
  }
  out += diagnostics.empty() ? "],\n" : "\n  ],\n";
  out += "  \"exit_code\": " + std::to_string(ExitCode()) + "\n";
  out += "}\n";
  return out;
}

}  // namespace xic
