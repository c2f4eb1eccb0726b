#pragma once

/// \file backend.hpp
/// Constant stand-in for the retired device-backend registry. Every batched
/// launch runs inline on the thread pool, so the backend is always "host".
///
/// Only pipebench/pipeline.cpp reads it (its `backend` run-record field).
/// The next change to the benchmark deletes that field, and this header with
/// it. Library, test and bench code must not use it.

namespace hodlrx {

struct HostBackend {
  const char* name() const { return "host"; }
};

inline HostBackend backend() { return {}; }

}  // namespace hodlrx
