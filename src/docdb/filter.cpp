#include "docdb/filter.hpp"

#include <functional>
#include <regex>
#include <string>
#include <vector>

#include "util/strings.hpp"

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

// ---------------------------------------------------------------- Node tree

class Filter::Node {
 public:
  enum class Kind {
    kTrue,
    kAnd,
    kOr,
    kNor,
    kNot,
    kEq,
    kNe,
    kGt,
    kGte,
    kLt,
    kLte,
    kIn,
    kNin,
    kExists,
    kSize,
    kAll,
    kElemMatch,
    kRegex,
    kLike,
  };

  Kind kind = Kind::kTrue;
  std::string field;                                // dotted path, if any
  Value operand;                                    // comparison operand
  std::vector<Value> operands;                      // $in / $nin / $all
  std::vector<std::shared_ptr<const Node>> children;  // logical operators
  std::shared_ptr<const Node> inner;                // $not / $elemMatch
  std::shared_ptr<const std::regex> regex;          // $regex

  [[nodiscard]] bool matches(const Document& doc) const;

 private:
  [[nodiscard]] bool matches_field(const Value* field_value) const;
  [[nodiscard]] bool scalar_predicate(const Value& candidate) const;
};

namespace {

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

}  // namespace

bool Filter::Node::scalar_predicate(const Value& candidate) const {
  switch (kind) {
    case Kind::kGt: return compare_values(candidate, operand) > 0;
    case Kind::kGte: return compare_values(candidate, operand) >= 0;
    case Kind::kLt: return compare_values(candidate, operand) < 0;
    case Kind::kLte: return compare_values(candidate, operand) <= 0;
    case Kind::kRegex:
      return candidate.is_string() &&
             std::regex_search(candidate.as_string(), *regex);
    case Kind::kLike:
      return candidate.is_string() &&
             util::wildcard_match(operand.as_string(), candidate.as_string());
    default: return false;
  }
}

bool Filter::Node::matches_field(const Value* field_value) const {
  switch (kind) {
    case Kind::kEq:
      return field_value != nullptr && equality_match(*field_value, operand);
    case Kind::kNe:
      return field_value == nullptr || !equality_match(*field_value, operand);
    case Kind::kGt:
    case Kind::kGte:
    case Kind::kLt:
    case Kind::kLte:
    case Kind::kRegex:
    case Kind::kLike: {
      if (field_value == nullptr) return false;
      if (field_value->is_array()) {
        // Any-element semantics, as in Mongo.
        for (const Value& element : field_value->as_array()) {
          if (scalar_predicate(element)) return true;
        }
        return false;
      }
      return scalar_predicate(*field_value);
    }
    case Kind::kIn: {
      if (field_value == nullptr) return false;
      for (const Value& candidate : operands) {
        if (equality_match(*field_value, candidate)) return true;
      }
      return false;
    }
    case Kind::kNin: {
      if (field_value == nullptr) return true;
      for (const Value& candidate : operands) {
        if (equality_match(*field_value, candidate)) return false;
      }
      return true;
    }
    case Kind::kExists:
      return (field_value != nullptr) == operand.as_bool();
    case Kind::kSize:
      return field_value != nullptr && field_value->is_array() &&
             static_cast<std::int64_t>(field_value->as_array().size()) ==
                 operand.as_int();
    case Kind::kAll: {
      if (field_value == nullptr || !field_value->is_array()) return false;
      for (const Value& required : operands) {
        bool found = false;
        for (const Value& element : field_value->as_array()) {
          if (element == required) {
            found = true;
            break;
          }
        }
        if (!found) return false;
      }
      return true;
    }
    case Kind::kElemMatch: {
      if (field_value == nullptr || !field_value->is_array()) return false;
      for (const Value& element : field_value->as_array()) {
        if (inner->matches(element)) return true;
      }
      return false;
    }
    default: return false;
  }
}

bool Filter::Node::matches(const Document& doc) const {
  switch (kind) {
    case Kind::kTrue: return true;
    case Kind::kAnd:
      for (const auto& child : children) {
        if (!child->matches(doc)) return false;
      }
      return true;
    case Kind::kOr:
      for (const auto& child : children) {
        if (child->matches(doc)) return true;
      }
      return false;
    case Kind::kNor:
      for (const auto& child : children) {
        if (child->matches(doc)) return false;
      }
      return true;
    case Kind::kNot: return !inner->matches(doc);
    default: {
      const Value* field_value = doc.get_path(field);
      return matches_field(field_value);
    }
  }
}

// ------------------------------------------------------------------ compile

namespace {

using Node = Filter::Node;
using NodePtr = std::shared_ptr<const Node>;

Result<NodePtr> compile_query(const Value& query);

Result<NodePtr> compile_operator(const std::string& field,
                                 const std::string& op, const Value& operand) {
  auto node = std::make_shared<Node>();
  node->field = field;
  node->operand = operand;

  const auto simple = [&](Node::Kind kind) -> Result<NodePtr> {
    node->kind = kind;
    return NodePtr(node);
  };
  const auto list_valued = [&](Node::Kind kind) -> Result<NodePtr> {
    if (!operand.is_array()) {
      return util::Error{ErrorCode::kInvalidArgument,
                         op + " requires an array operand"};
    }
    node->kind = kind;
    node->operands = operand.as_array();
    return NodePtr(node);
  };

  if (op == "$eq") return simple(Node::Kind::kEq);
  if (op == "$ne") return simple(Node::Kind::kNe);
  if (op == "$gt") return simple(Node::Kind::kGt);
  if (op == "$gte") return simple(Node::Kind::kGte);
  if (op == "$lt") return simple(Node::Kind::kLt);
  if (op == "$lte") return simple(Node::Kind::kLte);
  if (op == "$in") return list_valued(Node::Kind::kIn);
  if (op == "$nin") return list_valued(Node::Kind::kNin);
  if (op == "$all") return list_valued(Node::Kind::kAll);
  if (op == "$exists") {
    if (!operand.is_bool()) {
      return util::Error{ErrorCode::kInvalidArgument,
                         "$exists requires a boolean"};
    }
    return simple(Node::Kind::kExists);
  }
  if (op == "$size") {
    if (!operand.is_int()) {
      return util::Error{ErrorCode::kInvalidArgument,
                         "$size requires an integer"};
    }
    return simple(Node::Kind::kSize);
  }
  if (op == "$regex") {
    if (!operand.is_string()) {
      return util::Error{ErrorCode::kInvalidArgument,
                         "$regex requires a string"};
    }
    try {
      node->regex = std::make_shared<const std::regex>(operand.as_string());
    } catch (const std::regex_error& e) {
      return util::Error{ErrorCode::kInvalidArgument,
                         std::string("bad $regex: ") + e.what()};
    }
    node->kind = Node::Kind::kRegex;
    return NodePtr(node);
  }
  if (op == "$like") {
    if (!operand.is_string()) {
      return util::Error{ErrorCode::kInvalidArgument,
                         "$like requires a string"};
    }
    return simple(Node::Kind::kLike);
  }
  if (op == "$not") {
    Result<NodePtr> inner = [&]() -> Result<NodePtr> {
      if (!operand.is_object()) {
        return util::Error{ErrorCode::kInvalidArgument,
                           "$not requires an operator object"};
      }
      // Wrap the operators back under the field.
      util::JsonObject wrapper;
      wrapper.set(field, operand);
      return compile_query(Value(std::move(wrapper)));
    }();
    if (!inner.ok()) return inner;
    node->kind = Node::Kind::kNot;
    node->inner = inner.value();
    node->field.clear();
    return NodePtr(node);
  }
  if (op == "$elemMatch") {
    if (!operand.is_object()) {
      return util::Error{ErrorCode::kInvalidArgument,
                         "$elemMatch requires a query object"};
    }
    Result<NodePtr> inner = compile_query(operand);
    if (!inner.ok()) return inner;
    node->kind = Node::Kind::kElemMatch;
    node->inner = inner.value();
    return NodePtr(node);
  }
  return util::Error{ErrorCode::kInvalidArgument, "unknown operator " + op};
}

/// True when an object consists solely of `$op` keys (an operator block).
bool is_operator_block(const Value& value) {
  if (!value.is_object() || value.as_object().empty()) return false;
  for (const auto& [key, unused] : value.as_object()) {
    if (key.empty() || key[0] != '$') return false;
  }
  return true;
}

Result<NodePtr> compile_logical(Node::Kind kind, const Value& operand) {
  if (!operand.is_array() || operand.as_array().empty()) {
    return util::Error{ErrorCode::kInvalidArgument,
                       "logical operator requires a non-empty array"};
  }
  auto node = std::make_shared<Node>();
  node->kind = kind;
  for (const Value& clause : operand.as_array()) {
    Result<NodePtr> child = compile_query(clause);
    if (!child.ok()) return child;
    node->children.push_back(child.value());
  }
  return NodePtr(node);
}

Result<NodePtr> compile_query(const Value& query) {
  if (!query.is_object()) {
    return util::Error{ErrorCode::kInvalidArgument,
                       "filter must be a JSON object"};
  }
  auto root = std::make_shared<Node>();
  root->kind = Node::Kind::kAnd;

  for (const auto& [key, operand] : query.as_object()) {
    if (key == "$and" || key == "$or" || key == "$nor") {
      const Node::Kind kind = key == "$and"  ? Node::Kind::kAnd
                              : key == "$or" ? Node::Kind::kOr
                                             : Node::Kind::kNor;
      Result<NodePtr> child = compile_logical(kind, operand);
      if (!child.ok()) return child;
      root->children.push_back(child.value());
      continue;
    }
    if (!key.empty() && key[0] == '$') {
      return util::Error{ErrorCode::kInvalidArgument,
                         "unknown top-level operator " + key};
    }
    if (is_operator_block(operand)) {
      for (const auto& [op, op_operand] : operand.as_object()) {
        Result<NodePtr> child = compile_operator(key, op, op_operand);
        if (!child.ok()) return child;
        root->children.push_back(child.value());
      }
    } else {
      auto eq = std::make_shared<Node>();
      eq->kind = Node::Kind::kEq;
      eq->field = key;
      eq->operand = operand;
      root->children.push_back(NodePtr(eq));
    }
  }

  if (root->children.empty()) {
    root->kind = Node::Kind::kTrue;
  } else if (root->children.size() == 1) {
    return Result<NodePtr>(root->children.front());
  }
  return NodePtr(root);
}

}  // namespace

Filter::Filter(std::shared_ptr<const Node> root) : root_(std::move(root)) {}

Result<Filter> Filter::compile(const Value& query) {
  Result<NodePtr> root = compile_query(query);
  if (!root.ok()) return Result<Filter>(root.error());
  return Filter(root.value());
}

Filter Filter::match_all() {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kTrue;
  return Filter(NodePtr(node));
}

bool Filter::matches(const Document& doc) const { return root_->matches(doc); }

namespace {

/// Visit every leaf clause of the top-level conjunction, flattening
/// nested $and nodes.  Non-conjunctive subtrees ($or, $nor, $not, ...)
/// are visited as single opaque leaves.
void for_each_conjunct(const Filter::Node& node,
                       const std::function<void(const Filter::Node&)>& visit) {
  if (node.kind == Filter::Node::Kind::kAnd) {
    for (const auto& child : node.children) for_each_conjunct(*child, visit);
    return;
  }
  visit(node);
}

}  // namespace

std::vector<std::pair<std::string, std::vector<Filter::Bound>>>
Filter::extractable_bounds() const {
  std::vector<std::pair<std::string, std::vector<Bound>>> by_field;
  const auto bounds_for = [&](const std::string& field) -> std::vector<Bound>& {
    for (auto& [name, bounds] : by_field) {
      if (name == field) return bounds;
    }
    return by_field.emplace_back(field, std::vector<Bound>{}).second;
  };
  for_each_conjunct(*root_, [&](const Node& leaf) {
    Bound bound;
    switch (leaf.kind) {
      case Node::Kind::kEq:
        bound.op = Bound::Op::kEq;
        bound.operand = &leaf.operand;
        break;
      case Node::Kind::kGt:
        bound.op = Bound::Op::kGt;
        bound.operand = &leaf.operand;
        break;
      case Node::Kind::kGte:
        bound.op = Bound::Op::kGte;
        bound.operand = &leaf.operand;
        break;
      case Node::Kind::kLt:
        bound.op = Bound::Op::kLt;
        bound.operand = &leaf.operand;
        break;
      case Node::Kind::kLte:
        bound.op = Bound::Op::kLte;
        bound.operand = &leaf.operand;
        break;
      case Node::Kind::kIn:
        bound.op = Bound::Op::kIn;
        bound.list = &leaf.operands;
        break;
      default:
        return;  // opaque to the planner; stays in the residual
    }
    bounds_for(leaf.field).push_back(bound);
  });
  return by_field;
}

std::size_t Filter::clause_count() const {
  std::size_t count = 0;
  for_each_conjunct(*root_, [&](const Node& leaf) {
    if (leaf.kind != Node::Kind::kTrue) ++count;
  });
  return count;
}

const Value* Filter::equality_on(std::string_view field) const {
  const Node* node = root_.get();
  const auto check = [&](const Node& candidate) -> const Value* {
    if (candidate.kind == Node::Kind::kEq && candidate.field == field) {
      return &candidate.operand;
    }
    return nullptr;
  };
  if (const Value* hit = check(*node)) return hit;
  if (node->kind == Node::Kind::kAnd) {
    for (const auto& child : node->children) {
      if (const Value* hit = check(*child)) return hit;
    }
  }
  return nullptr;
}

}  // namespace upin::docdb
