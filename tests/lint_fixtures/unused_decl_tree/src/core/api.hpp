/// \file api.hpp
/// Lint fixture (never compiled): rule unused-decl. fixture_uncalled() is
/// named nowhere else and must be reported. fixture_called() is named
/// only by the perfbench tree, which layers.def reads for names only, and
/// fixture_api() is kept by the allow directive, the way deliberate
/// public API is; neither may be reported.

#pragma once

namespace fixture {

int fixture_called(int x);
int fixture_uncalled(int x);

// parfft-lint: allow(unused-decl) -- the fixture's public entry point
int fixture_api(int x);

}  // namespace fixture
