#pragma once

#include <string>
#include <string_view>

#include "sql/ast.h"

namespace sqlcheck::sql {

/// \brief Renders an expression back to SQL text.
std::string PrintExpr(const Expr& expr);

/// \brief An identifier as SQL text: bare, or double-quoted when it holds
/// anything but letters, digits and `_`.
std::string PrintName(std::string_view name);

/// \brief A string payload as a single-quoted SQL literal ('' for ').
std::string QuoteString(std::string_view s);

}  // namespace sqlcheck::sql
