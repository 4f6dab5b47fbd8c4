#ifndef PROX_PROVENANCE_IO_H_
#define PROX_PROVENANCE_IO_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "provenance/expression.h"

namespace prox {

/// \brief Text serialization of provenance expressions.
///
/// A stable, ASCII, s-expression format for persisting and exchanging
/// provenance (the pretty `ToString` forms use mathematical glyphs and are
/// not meant to be parsed). Annotations are written as `domain/name`
/// pairs; parsing interns unknown domains and annotations into the target
/// registry, so expressions can be loaded into a fresh process.
///
/// Aggregate form:
///   (aggregate MAX
///     (term (mono user/U1 movie/MP) (group movie/MP) (value 3 1)
///           (guard (mono stats/S1 user/U1) 5 > 2)))
///
/// DDP form:
///   (ddp
///     (cost cost/c1 4)
///     (exec (user cost/c1) (db != db/d1 db/d2)))
std::string SerializeExpression(const ProvenanceExpression& expr,
                                const AnnotationRegistry& registry);

/// Parses a serialized expression, interning annotations into `registry`,
/// and returns its flat prox::ir form on a fresh TermPool. Existing
/// annotations are reused by name; a name registered under a different
/// domain is an error.
Result<std::unique_ptr<ProvenanceExpression>> ParseExpression(
    const std::string& text, AnnotationRegistry* registry);

}  // namespace prox

#endif  // PROX_PROVENANCE_IO_H_
