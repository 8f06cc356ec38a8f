"""Counter nets: finite automata with non-negative integer counters and
no zero tests.  Build them directly or from the zoo, compose them with
products/projections/unions/lifts, flatten deterministic ones to a single
state, and compare languages over bounded word generators.

The names below are imported from their module on first access (PEP 562),
so a program that needs only `core` does not pay for `analysis` or `vas`."""

import importlib as _importlib

__version__ = "0.1.0"

# module -> the names it exports through the package
_EXPORTS = {
    "core": """Config CounterNet EnumerationCapError Frontier FrontierGraph InvalidNetError
        Run Transition Vector Word accepts accepts_naive enumerate_accepting_runs
        initial_frontier is_deterministic is_valid_n_run max_positive_update replay
        run_effect step_frontier validate""",
    "constructions": """GADGET_SEPARATOR build_reduction lift product product_all project
        trim union""",
    "analysis": """ComparisonReport CycleWitness PumpableCycle PumpFamily SearchCaps all_words
        bounded_compare check_decomposition classify_run_form compare_nets_walk
        counter_ceiling extract_pumpable_cycle find_bad_segment_witness find_cycles
        find_pump_family forcing_length paired_box pump_period pump_run
        refute_partition_decomposition segmented_box selector_box triple_box""",
    "vas": "LabelMap VasResult distinct_label triplet_transform vasify verify_pipeline",
    "zoo": """PairedBlockWord SegmentedWord SelectorWord build_coarse_factors build_paired_dcn
        build_partition_k build_partition_net build_selector_dcn build_selector_ncn
        build_shared_budget paired_oracle parse_segmented partition_k_oracle
        partition_oracle render_segmented selector_oracle shared_budget_oracle""",
    "fileformat": """MachineFileError emit_machine_file parse_machine_file parse_word
        render_word_text""",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule also binds it here
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
