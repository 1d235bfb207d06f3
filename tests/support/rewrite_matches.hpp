// rewrite_matches.hpp — bulk changes to a docdb collection, built from
// the calls the program itself makes (find, delete_by_id, insert_one).
//
// Collection has no update or multi-document delete.  Tests that churn
// a population (index maintenance, planner-vs-scan, journal replay) use
// these instead.  Every matched document must carry an `_id`, as every
// stored document does.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <string>
#include <utility>

#include "docdb/collection.hpp"

namespace upin::test_support {

/// Delete every document matching `filter`, one delete_by_id per match.
/// Returns how many were deleted.
inline std::size_t delete_matches(docdb::Collection& coll,
                                  const docdb::Filter& filter) {
  std::size_t deleted = 0;
  for (const docdb::Document& doc : coll.find(filter)) {
    EXPECT_TRUE(coll.delete_by_id(std::string(*docdb::document_id(doc))));
    ++deleted;
  }
  return deleted;
}

/// Apply `edit` to every document matching `filter`: delete it by id,
/// then insert the edited copy (the post-image) under the same id, so it
/// moves to the end of insertion order.  `edit` must keep the `_id`.
/// Returns how many documents were rewritten.
inline std::size_t rewrite_matches(
    docdb::Collection& coll, const docdb::Filter& filter,
    const std::function<void(docdb::Document&)>& edit) {
  std::size_t rewritten = 0;
  for (docdb::Document doc : coll.find(filter)) {
    EXPECT_TRUE(coll.delete_by_id(std::string(*docdb::document_id(doc))));
    edit(doc);
    EXPECT_TRUE(coll.insert_one(std::move(doc)).ok());
    ++rewritten;
  }
  return rewritten;
}

}  // namespace upin::test_support
