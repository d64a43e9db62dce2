// Umbrella header for the xic library: integrity constraints for XML
// (Fan & Simeon, PODS 2000).
//
// Subsystem map (see DESIGN.md for the full inventory):
//   model/         data trees (Def 2.1) and DTD structures (Def 2.2)
//   regex/         content models, Glushkov automata
//   xml/           XML + DTD parsing, serialization
//   constraints/   the languages L, L_u, L_id; well-formedness; checking
//   engine/        parallel batch validation (one ParallelFor per batch)
//   implication/   the solvers of Section 3 (I_id, I_u, I_u^f, I_p, chase)
//   analysis/      static lint rules over (DTD, Sigma) pairs (xiclint)
//   paths/         Section 4 path typing / evaluation / implication
//   relational/    legacy relational schemas, FD+IND chase, L encoding
//   oo/            legacy ODL schemas and L_id-preserving export
//   logic/         FO structures and 2-pebble EF games (Figure 1)

#ifndef XIC_XIC_H_
#define XIC_XIC_H_

#include "analysis/analyzer.h"
#include "analysis/diagnostic.h"
#include "analysis/rule.h"
#include "constraints/checker.h"
#include "constraints/constraint.h"
#include "constraints/constraint_parser.h"
#include "constraints/incremental.h"
#include "constraints/infer_dtd.h"
#include "constraints/repair.h"
#include "constraints/well_formed.h"
#include "engine/batch_validator.h"
#include "engine/parallel_for.h"
#include "engine/stream_validator.h"
#include "fuzzing/corpus.h"
#include "fuzzing/fuzzer.h"
#include "fuzzing/generate.h"
#include "fuzzing/oracles.h"
#include "fuzzing/reducer.h"
#include "fuzzing/rng.h"
#include "implication/countermodel.h"
#include "implication/derivation.h"
#include "implication/l_general_solver.h"
#include "implication/lid_solver.h"
#include "implication/satisfy.h"
#include "implication/lp_solver.h"
#include "implication/lu_solver.h"
#include "integration/dtd_evolution.h"
#include "integration/mapping.h"
#include "logic/ef_game.h"
#include "logic/figure1.h"
#include "logic/fo_sentence.h"
#include "logic/structure.h"
#include "model/data_tree.h"
#include "model/doc_generator.h"
#include "model/dtd_structure.h"
#include "model/structural_validator.h"
#include "oo/export_xml.h"
#include "oo/odl_instance.h"
#include "oo/odl_schema.h"
#include "oo/odl_writer.h"
#include "paths/path.h"
#include "paths/path_eval.h"
#include "paths/path_solver.h"
#include "paths/optimizer.h"
#include "paths/path_typing.h"
#include "regex/content_model.h"
#include "regex/glushkov.h"
#include "regex/inclusion.h"
#include "relational/dependencies.h"
#include "relational/export_xml.h"
#include "relational/import_xml.h"
#include "relational/instance.h"
#include "relational/reduction.h"
#include "relational/schema.h"
#include "relational/sql_ddl.h"
#include "util/status.h"
#include "util/strings.h"
#include "xml/dtd_parser.h"
#include "xml/dtdc_io.h"
#include "xml/serializer.h"
#include "xml/xml_parser.h"

#endif  // XIC_XIC_H_
