// Parser for DTD declarations (<!ELEMENT ...> and <!ATTLIST ...>),
// producing a DtdStructure (Definition 2.2).
//
// Attribute type mapping:
//   ID                  -> R = S,  kind = ID
//   IDREF               -> R = S,  kind = IDREF
//   IDREFS              -> R = S*, kind = IDREF
//   NMTOKENS / ENTITIES -> R = S*
//   CDATA / NMTOKEN / enumerations / ENTITY -> R = S
// Default declarations (#REQUIRED / #IMPLIED / #FIXED "v" / "v") are
// parsed and discarded: the paper's R has no notion of optionality.
// Parameter entities are not supported.

#ifndef XIC_XML_DTD_PARSER_H_
#define XIC_XML_DTD_PARSER_H_

#include <string>

#include "model/dtd_structure.h"
#include "util/limits.h"
#include "util/status.h"

namespace xic {

struct DtdParseOptions {
  /// Hard input bounds (subset bytes, content-model nesting). Violations
  /// return kResourceExhausted naming the limit.
  ResourceLimits limits;
  /// Time budget; checked once per declaration.
  Deadline deadline;
};

/// Parses a DTD (a sequence of declarations, e.g. the internal subset of a
/// DOCTYPE). `root` becomes the structure's root element type r.
Result<DtdStructure> ParseDtd(const std::string& text,
                              const std::string& root,
                              const DtdParseOptions& options = {});

/// Parses the internal subset of a DOCTYPE named `doctype_name` (which
/// becomes the root) under the document's own limits and deadline. The
/// DOM parser and both streaming entry points recover a document's DTD
/// through this one call, so their errors agree byte for byte.
Result<DtdStructure> ParseInternalSubset(const std::string& subset,
                                         const std::string& doctype_name,
                                         const ResourceLimits& limits,
                                         const Deadline& deadline);

}  // namespace xic

#endif  // XIC_XML_DTD_PARSER_H_
