"""Deploy-files: declarative installation procedures (paper Fig. 9).

A deploy-file is an XML ``<Build>`` document whose ``<Step>`` elements
form a dependency DAG (``depends`` attributes).  Steps carry a task
command (``mkdir-p``, ``globus-url-copy``, ``tar xvfz``,
``./configure``, ``make``, ``ant`` ...), per-step environment variables
and properties, and a timeout.  Two extensions make the simulated
execution self-contained, both documented in DESIGN.md:

* ``demand`` — the CPU-seconds a compute step burns on the target site
  (we cannot actually run ``make``, so the recipe declares its cost,
  calibrated from the paper's Table 1);
* ``<Produces path=... size=... executable=...>`` — the files a step
  creates, so unpacking/building materialises a real filesystem layout
  that deployment identification (``bin/`` exploration) can inspect.

``<Dialog expect=... send=...>`` children describe the interactive
installer prompts an Expect-driven virtual terminal answers
automatically (paper §3.4: license acceptance, install path, ...).

Every site of a rollout executes the *same* description, so
:func:`parse_deployfile` compiles a document string once — XML parse,
step kinds, and the Kahn pass that validates the DAG, fixes the order
and merges the environment — and all of them walk one
:class:`BuildRecipe`.  That is safe because the plan is immutable and
nothing per-site is stored on it; it rides the document's
:class:`repro.wsrf.xmldoc.SharedDocument` record, one memo, one bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple

from repro.glare.errors import InvalidTypeDescription
from repro.wsrf.xmldoc import shared_document

#: task-name prefixes recognized as structural (filesystem) operations
TASK_MKDIR = "mkdir"
TASK_DOWNLOAD = ("globus-url-copy", "wget", "curl")
TASK_EXPAND = ("tar", "unzip", "gunzip")


@dataclass(frozen=True)
class ExpectDialog:
    """One interactive prompt/answer pair in an installer."""

    expect: str
    send: str
    delay: float = 0.2


@dataclass(frozen=True)
class ProducedFile:
    """A file a step materialises, relative to the step's base dir."""

    path: str
    size: int
    executable: bool = False


def _classify(task: str) -> str:
    """Coarse classification of a task command, driving handler behaviour."""
    words = task.split("/")[-1].split()
    base = words[0] if words else ""
    if base.startswith(TASK_MKDIR):
        return "mkdir"
    if base.startswith(TASK_DOWNLOAD):
        return "download"
    if base.startswith(TASK_EXPAND):
        return "expand"
    return "compute"


@dataclass(frozen=True)
class BuildStep:
    """One node of the deploy-file DAG (immutable: sequences are kept as
    tuples, ``env`` as a read-only mapping, whatever was passed in)."""

    name: str
    task: str
    depends: Tuple[str, ...] = ()
    base_dir: str = ""
    timeout: float = 60.0
    demand: float = 0.0
    env: Mapping[str, str] = field(default_factory=dict, hash=False)
    properties: Tuple[Tuple[str, str], ...] = ()
    produces: Tuple[ProducedFile, ...] = ()
    dialogs: Tuple[ExpectDialog, ...] = ()
    #: ``mkdir`` / ``download`` / ``expand`` / ``compute``, from ``task``
    kind: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        freeze = object.__setattr__
        freeze(self, "depends", tuple(self.depends))
        freeze(self, "env", MappingProxyType(dict(self.env)))
        freeze(self, "properties", tuple(map(tuple, self.properties)))
        freeze(self, "produces", tuple(self.produces))
        freeze(self, "dialogs", tuple(self.dialogs))
        freeze(self, "kind", _classify(self.task))

    def prop(self, name: str, default: str = "") -> str:
        """First property value with the given name."""
        for key, value in self.properties:
            if key == name:
                return value
        return default

    def props(self, name: str) -> List[str]:
        """All property values with the given name (e.g. ``argument``)."""
        return [value for key, value in self.properties if key == name]


@dataclass(frozen=True)
class BuildRecipe:
    """A compiled deploy-file, validated and ordered when constructed: an
    unknown dependency or a cycle raises — neither can ever run."""

    name: str
    base_dir: str = "/tmp"
    default_task: str = "Deploy"
    steps: Tuple[BuildStep, ...] = ()
    _ordered: Tuple[BuildStep, ...] = field(init=False, compare=False, repr=False)
    _env: Mapping[str, str] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        """The one Kahn pass: validates the DAG, orders it, merges the env."""
        steps = tuple(self.steps)
        names = {s.name for s in steps}
        indegree: Dict[str, int] = {s.name: 0 for s in steps}
        merged: Dict[str, str] = {}
        for s in steps:
            merged.update(s.env)
            for dep in s.depends:
                if dep not in names:
                    raise InvalidTypeDescription(
                        f"step {s.name!r} depends on unknown step {dep!r}"
                    )
                indegree[s.name] += 1
        ready = [s for s in steps if indegree[s.name] == 0]
        ordered: List[BuildStep] = []
        while ready:
            current = ready.pop(0)
            ordered.append(current)
            for s in steps:
                if current.name in s.depends:
                    indegree[s.name] -= 1
                    if indegree[s.name] == 0:
                        ready.append(s)
        if len(ordered) != len(steps):
            raise InvalidTypeDescription(
                f"deploy-file {self.name!r} has a dependency cycle"
            )
        freeze = object.__setattr__
        freeze(self, "steps", steps)
        freeze(self, "_ordered", tuple(ordered))
        freeze(self, "_env", MappingProxyType(merged))

    def step(self, name: str) -> BuildStep:
        for s in self.steps:
            if s.name == name:
                return s
        raise InvalidTypeDescription(f"deploy-file {self.name!r} has no step {name!r}")

    def ordered_steps(self) -> Tuple[BuildStep, ...]:
        """Steps in dependency order."""
        return self._ordered

    def total_compute_demand(self) -> float:
        """Sum of declared CPU demands (configure+make+install time)."""
        return sum(s.demand for s in self.steps)

    def download_urls(self) -> List[Tuple[str, str, str]]:
        """All ``(source_url, destination, md5sum)`` the recipe fetches."""
        out = []
        for s in self.steps:
            if s.kind == "download":
                out.append((s.prop("source"), s.prop("destination"), s.prop("md5sum")))
        return out

    def collected_env(self) -> Mapping[str, str]:
        """Union of every step's environment definitions (read-only)."""
        return self._env


def parse_deployfile(source) -> BuildRecipe:
    """Compile and validate a deploy-file document (string or Element).

    A string is compiled once per distinct document, every caller gets
    the same immutable plan, and one that fails validation raises every
    time and leaves no plan.  An ``Element`` is compiled privately.
    """
    if not isinstance(source, str):
        return _compile(source)
    shared = shared_document(source)
    if shared.compiled is None:
        shared.compiled = _compile(shared.root)
    return shared.compiled


def _compile(el) -> BuildRecipe:
    if el.tag != "Build":
        raise InvalidTypeDescription(f"deploy-file root must be <Build>, got <{el.tag}>")
    recipe_name = el.get("name", "unnamed")
    recipe_base_dir = el.get("baseDir", "/tmp")
    steps: List[BuildStep] = []
    seen = set()
    for step_el in el.findall("Step"):
        name = step_el.get("name", "")
        if not name:
            raise InvalidTypeDescription("every <Step> needs a name")
        if name in seen:
            raise InvalidTypeDescription(f"duplicate step name {name!r}")
        seen.add(name)
        env: Dict[str, str] = {}
        properties: List[Tuple[str, str]] = []
        produces: List[ProducedFile] = []
        dialogs: List[ExpectDialog] = []
        for child in step_el.children:
            if child.tag == "Env":
                env[child.get("name", "")] = child.get("value", "")
            elif child.tag == "Property":
                # a Property may be (name, value) — Fig. 9 writes source
                # and destination as separate such children — or a named
                # pair (source=..., destination=...) flattened into attributes
                if child.get("name") is not None:
                    properties.append((child.get("name"), child.get("value", "")))
                else:
                    properties.extend(child.attrib.items())
            elif child.tag == "Produces":
                produces.append(
                    ProducedFile(
                        path=child.get("path", ""),
                        size=int(child.get("size", "0")),
                        executable=child.get("executable", "false").lower() == "true",
                    )
                )
            elif child.tag == "Dialog":
                dialogs.append(
                    ExpectDialog(
                        expect=child.get("expect", ""),
                        send=child.get("send", ""),
                        delay=float(child.get("delay", "0.2")),
                    )
                )
        steps.append(
            BuildStep(
                name=name,
                task=step_el.get("task", ""),
                depends=[d.strip() for d in step_el.get("depends", "").split(",") if d.strip()],
                base_dir=step_el.get("baseDir", recipe_base_dir),
                timeout=float(step_el.get("timeout", "60")),
                demand=float(step_el.get("demand", "0")),
                env=env,
                properties=properties,
                produces=produces,
                dialogs=dialogs,
            )
        )
    if not steps:
        raise InvalidTypeDescription(f"deploy-file {recipe_name!r} has no steps")
    return BuildRecipe(
        name=recipe_name,
        base_dir=recipe_base_dir,
        default_task=el.get("defaultTask", "Deploy"),
        steps=steps,
    )
