"""Pluggable collector registry for the scrape endpoint.

The Omnistat architecture applied to the profiler itself: the service
discovers ``collector_*.py`` files by name — first this built-in
directory, then any directories the operator passes (``repro
serve --collectors DIR``) — and calls each plug-in once per
``GET /metrics`` scrape.  The built-ins shipped here are ordinary
plug-ins loaded by path like any third-party file; they double as the
reference implementations of the contract.

The plug-in contract is two module-level names::

    COLLECTOR = "mything"               # optional; defaults to the
                                        # filename minus "collector_"

    def collect(service, registry):     # required
        registry.gauge("my_metric", "help").set(42)

``service`` is the live :class:`~repro.service.service.
ProfilingService` (job store, pool, merged per-job metrics) and
``registry`` is the fresh per-scrape :class:`~repro.obs.
MetricsRegistry` whose Prometheus exposition becomes the response.
A plug-in that raises during a scrape is isolated: the error is
counted (``repro_service_collector_errors_total``) and the remaining
collectors still run — a broken third-party file must never blind the
whole fleet.  A file that fails to *load* raises
:class:`~repro.errors.ServiceError` at startup, where it is loud and
attributable.
"""

from __future__ import annotations

import glob
import importlib.util
import os
from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.errors import ServiceError

#: Directory of the built-in collectors shipped with the service.
BUILTIN_DIR = os.path.dirname(__file__)

#: Filename pattern a collector module must match.
PATTERN = "collector_*.py"


@dataclass
class CollectorPlugin:
    """One loaded collector: a name, its source path, and the hook."""

    name: str
    path: str
    collect: Callable


def load_collectors(
    extra_dirs: Sequence[str] = (), include_builtin: bool = True
) -> List[CollectorPlugin]:
    """Discover and import every ``collector_*.py`` plug-in.

    Built-ins load first, then each extra directory in the given
    order; within a directory, files load in sorted order.  A later
    plug-in with the same name as an earlier one replaces it — that is
    how an operator overrides a built-in without touching the package.
    """
    directories: List[str] = []
    if include_builtin:
        directories.append(BUILTIN_DIR)
    directories.extend(extra_dirs)
    by_name: dict = {}
    order: List[str] = []
    for directory in directories:
        if not os.path.isdir(directory):
            raise ServiceError(
                f"collector directory {directory!r} does not exist"
            )
        for path in sorted(glob.glob(os.path.join(directory, PATTERN))):
            plugin = _load_one(path)
            if plugin.name not in by_name:
                order.append(plugin.name)
            by_name[plugin.name] = plugin
    return [by_name[name] for name in order]


def _load_one(path: str) -> CollectorPlugin:
    stem = os.path.splitext(os.path.basename(path))[0]
    default_name = stem[len("collector_"):] or stem
    module_key = f"repro_service_plugin_{abs(hash(os.path.abspath(path)))}"
    try:
        spec = importlib.util.spec_from_file_location(module_key, path)
        if spec is None or spec.loader is None:
            raise ImportError(f"cannot build import spec for {path!r}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ServiceError:
        raise
    except Exception as exc:
        raise ServiceError(
            f"collector plug-in {path!r} failed to load: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    collect = getattr(module, "collect", None)
    if not callable(collect):
        raise ServiceError(
            f"collector plug-in {path!r} defines no collect(service, "
            f"registry) function"
        )
    name = str(getattr(module, "COLLECTOR", default_name))
    return CollectorPlugin(name=name, path=path, collect=collect)
