#include "docdb/filter.hpp"

#include <string>
#include <string_view>
#include <utility>

namespace upin::docdb {

using util::ErrorCode;
using util::Result;
using util::Value;

int compare_values(const Value& a, const Value& b) {
  const auto rank = [](const Value& v) -> int {
    switch (v.type()) {
      case Value::Type::kNull: return 0;
      case Value::Type::kBool: return 1;
      case Value::Type::kInt:
      case Value::Type::kDouble: return 2;
      case Value::Type::kString: return 3;
      case Value::Type::kArray: return 4;
      case Value::Type::kObject: return 5;
    }
    return 6;
  };
  const int ra = rank(a);
  const int rb = rank(b);
  if (ra != rb) return ra < rb ? -1 : 1;

  switch (a.type()) {
    case Value::Type::kNull: return 0;
    case Value::Type::kBool:
      return static_cast<int>(a.as_bool()) - static_cast<int>(b.as_bool());
    case Value::Type::kInt:
    case Value::Type::kDouble: {
      if (a.is_int() && b.is_int()) {
        const auto x = a.as_int();
        const auto y = b.as_int();
        return x < y ? -1 : (x > y ? 1 : 0);
      }
      const double x = a.as_double();
      const double y = b.as_double();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case Value::Type::kString:
      return a.as_string().compare(b.as_string()) < 0
                 ? -1
                 : (a.as_string() == b.as_string() ? 0 : 1);
    case Value::Type::kArray: {
      const auto& xs = a.as_array();
      const auto& ys = b.as_array();
      const std::size_t n = std::min(xs.size(), ys.size());
      for (std::size_t i = 0; i < n; ++i) {
        const int c = compare_values(xs[i], ys[i]);
        if (c != 0) return c;
      }
      return xs.size() < ys.size() ? -1 : (xs.size() > ys.size() ? 1 : 0);
    }
    case Value::Type::kObject: {
      // Deterministic but arbitrary: compare canonical serializations.
      const std::string sa = a.dump();
      const std::string sb = b.dump();
      return sa < sb ? -1 : (sa == sb ? 0 : 1);
    }
  }
  return 0;
}

// ------------------------------------------------------------------- match

namespace {

using Op = Filter::Op;

/// True when a field value satisfies an equality with `operand`, with
/// Mongo's array-contains extension.
bool equality_match(const Value& field_value, const Value& operand) {
  if (field_value == operand) return true;
  if (field_value.is_array() && !operand.is_array()) {
    for (const Value& element : field_value.as_array()) {
      if (element == operand) return true;
    }
  }
  return false;
}

bool in_list(const Value& field_value, const Value& list) {
  for (const Value& candidate : list.as_array()) {
    if (equality_match(field_value, candidate)) return true;
  }
  return false;
}

bool in_range(Op op, const Value& candidate, const Value& operand) {
  const int c = compare_values(candidate, operand);
  switch (op) {
    case Op::kGt: return c > 0;
    case Op::kGte: return c >= 0;
    case Op::kLt: return c < 0;
    case Op::kLte: return c <= 0;
    default: return false;
  }
}

/// One predicate against a field value (nullptr when the field is missing).
bool holds(const Filter::Predicate& predicate, const Value* field_value) {
  const Value& operand = predicate.operand;
  switch (predicate.op) {
    case Op::kEq:
      return field_value != nullptr && equality_match(*field_value, operand);
    case Op::kNe:
      return field_value == nullptr || !equality_match(*field_value, operand);
    case Op::kIn:
      return field_value != nullptr && in_list(*field_value, operand);
    case Op::kNin:
      return field_value == nullptr || !in_list(*field_value, operand);
    default: {
      if (field_value == nullptr) return false;
      if (field_value->is_array()) {
        // Any-element semantics, as in Mongo.
        for (const Value& element : field_value->as_array()) {
          if (in_range(predicate.op, element, operand)) return true;
        }
        return false;
      }
      return in_range(predicate.op, *field_value, operand);
    }
  }
}

}  // namespace

bool Filter::matches(const Document& doc) const {
  for (const Field& field : fields_) {
    const Value* field_value = doc.get_path(field.path);
    for (const Predicate& predicate : field.predicates) {
      if (!holds(predicate, field_value)) return false;
    }
  }
  return true;
}

// ----------------------------------------------------------------- compile

namespace {

constexpr std::pair<std::string_view, Op> kOperators[] = {
    {"$eq", Op::kEq},   {"$ne", Op::kNe}, {"$gt", Op::kGt},
    {"$gte", Op::kGte}, {"$lt", Op::kLt}, {"$lte", Op::kLte},
    {"$in", Op::kIn},   {"$nin", Op::kNin},
};

/// True when an object consists solely of `$op` keys (an operator block).
bool is_operator_block(const Value& value) {
  if (!value.is_object() || value.as_object().empty()) return false;
  for (const auto& [key, unused] : value.as_object()) {
    if (key.empty() || key[0] != '$') return false;
  }
  return true;
}

Result<Filter::Predicate> compile_predicate(const std::string& name,
                                            const Value& operand) {
  for (const auto& [spelling, op] : kOperators) {
    if (name != spelling) continue;
    if ((op == Op::kIn || op == Op::kNin) && !operand.is_array()) {
      return util::Error{ErrorCode::kInvalidArgument,
                         name + " requires an array operand"};
    }
    return Filter::Predicate{op, operand};
  }
  return util::Error{ErrorCode::kInvalidArgument, "unknown operator " + name};
}

}  // namespace

Result<Filter> Filter::compile(const Value& query) {
  if (!query.is_object()) {
    return util::Error{ErrorCode::kInvalidArgument,
                       "filter must be a JSON object"};
  }
  Filter filter;
  for (const auto& [key, operand] : query.as_object()) {
    if (!key.empty() && key[0] == '$') {
      return util::Error{ErrorCode::kInvalidArgument,
                         "unknown top-level operator " + key};
    }
    Field& field = filter.fields_.emplace_back(Field{key, {}});
    if (!is_operator_block(operand)) {
      field.predicates.push_back({Op::kEq, operand});
      continue;
    }
    for (const auto& [name, op_operand] : operand.as_object()) {
      Result<Predicate> predicate = compile_predicate(name, op_operand);
      if (!predicate.ok()) return predicate.error();
      field.predicates.push_back(std::move(predicate).value());
    }
  }
  return filter;
}

Filter Filter::match_all() { return Filter(); }

std::size_t Filter::clause_count() const noexcept {
  std::size_t count = 0;
  for (const Field& field : fields_) count += field.predicates.size();
  return count;
}

}  // namespace upin::docdb
