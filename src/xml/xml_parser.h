// XML document parser producing data trees (Definition 2.1).
//
// ParseXml builds a DataTree from the events of xml/stream_tokenizer.h,
// which holds xic's one XML grammar: the subset of XML 1.0 needed for
// the paper's model (prolog, DOCTYPE with an internal DTD subset,
// elements, attributes, character data, comments, CDATA sections,
// character and predefined entity references). Namespaces and parameter
// entities are outside the scope; processing instructions are skipped.
// The input string is read in place. The builder makes a vertex per
// start tag and one text child per run of character data (a run the
// tokenizer delivers in several chunks is joined), and parses the
// DOCTYPE's internal subset into the document's DTD.
//
// XML attribute values are strings; the paper's att() maps to *sets* of
// atomic values. When a DtdStructure is supplied, values of set-valued
// attributes (IDREFS / NMTOKENS) are tokenized on whitespace into sets;
// all other values become singletons.

#ifndef XIC_XML_XML_PARSER_H_
#define XIC_XML_XML_PARSER_H_

#include <optional>
#include <string>

#include "model/data_tree.h"
#include "model/dtd_structure.h"
#include "util/limits.h"
#include "util/status.h"

namespace xic {

struct XmlParseOptions {
  /// Drop text nodes consisting only of whitespace (layout between tags).
  bool skip_ignorable_whitespace = true;
  /// Tokenize set-valued attribute values using this DTD (may be null;
  /// ignored when the document carries its own internal subset).
  const DtdStructure* dtd = nullptr;
  /// Hard input bounds (document bytes, nesting depth, attributes per
  /// element, reference-expansion output). Violations return
  /// kResourceExhausted naming the limit; ResourceLimits::Unlimited()
  /// disables them.
  ResourceLimits limits;
  /// Time budget; checked once per element. Expiry returns
  /// kDeadlineExceeded.
  Deadline deadline;
};

/// A parsed document: the data tree plus the DTD recovered from the
/// internal subset (if the document had a DOCTYPE with declarations).
struct XmlDocument {
  DataTree tree;
  std::optional<DtdStructure> dtd;
  std::string doctype_name;     // empty when no DOCTYPE
  std::string internal_subset;  // raw text between '[' and ']', if any
};

/// Parses a complete XML document.
Result<XmlDocument> ParseXml(const std::string& text,
                             const XmlParseOptions& options = {});

/// Tokenizes a normalized attribute value into the paper's set-of-values
/// form: split on XML S whitespace when `set_valued` (IDREFS / NMTOKENS),
/// else a singleton containing `raw` verbatim. The DOM parser uses it and
/// the streaming validator follows the same split, so extents agree
/// byte-for-byte.
AttrValue TokenizeAttrValue(std::string_view raw, bool set_valued);

/// Decodes one entity/character reference (the text between '&' and ';')
/// to its UTF-8 expansion, for the tokenizer. The returned ParseError
/// carries the bare description; the caller adds line/column.
Result<std::string> ExpandXmlEntity(std::string_view ref);

}  // namespace xic

#endif  // XIC_XML_XML_PARSER_H_
