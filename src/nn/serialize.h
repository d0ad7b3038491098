// Binary (de)serialisation of module parameters, so trained imputers can be
// checkpointed and reloaded by examples and benches.
#pragma once

#include <iosfwd>
#include <string>

#include "nn/module.h"

namespace fmnet::nn {

/// Writes all parameters of `module` to `path` (magic + per-tensor shape +
/// float data, little-endian host order). Throws CheckError on I/O failure.
void save_parameters(const Module& module, const std::string& path);

/// Loads parameters saved by save_parameters into `module`. The module must
/// have identical architecture: tensor count and shapes are verified, and
/// every value must be finite. A rejected checkpoint throws CheckError and
/// leaves `module` untouched.
void load_parameters(Module& module, const std::string& path);

/// Stream variants of the same format, used by the engine's artifact store
/// to checkpoint trained models under content-addressed keys.
void save_parameters(const Module& module, std::ostream& out);
void load_parameters(Module& module, std::istream& in);

/// True when every learned scalar of `module` is finite. A diverged fit
/// must not reach a checkpoint: its content key stays valid, so every warm
/// run would load and serve it.
bool all_parameters_finite(const Module& module);

}  // namespace fmnet::nn
