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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.glare.errors import InvalidTypeDescription
from repro.wsrf.xmldoc import parse_shared

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


@dataclass
class BuildStep:
    """One node of the deploy-file DAG."""

    name: str
    task: str
    depends: List[str] = field(default_factory=list)
    base_dir: str = ""
    timeout: float = 60.0
    demand: float = 0.0
    env: Dict[str, str] = field(default_factory=dict)
    properties: List[Tuple[str, str]] = field(default_factory=list)
    produces: List[ProducedFile] = field(default_factory=list)
    dialogs: List[ExpectDialog] = field(default_factory=list)

    def prop(self, name: str, default: str = "") -> str:
        """First property value with the given name."""
        for key, value in self.properties:
            if key == name:
                return value
        return default

    def props(self, name: str) -> List[str]:
        """All property values with the given name (e.g. ``argument``)."""
        return [value for key, value in self.properties if key == name]

    @property
    def kind(self) -> str:
        """Coarse classification driving handler behaviour."""
        task = self.task.strip()
        base = task.split("/")[-1].split()[0] if task else ""
        if base.startswith(TASK_MKDIR):
            return "mkdir"
        if any(base.startswith(t) for t in TASK_DOWNLOAD):
            return "download"
        if any(base.startswith(t) for t in TASK_EXPAND):
            return "expand"
        return "compute"


@dataclass
class BuildRecipe:
    """A parsed deploy-file."""

    name: str
    base_dir: str = "/tmp"
    default_task: str = "Deploy"
    steps: List[BuildStep] = field(default_factory=list)

    def step(self, name: str) -> BuildStep:
        for s in self.steps:
            if s.name == name:
                return s
        raise InvalidTypeDescription(f"deploy-file {self.name!r} has no step {name!r}")

    def ordered_steps(self) -> List[BuildStep]:
        """Steps in dependency order (Kahn's algorithm).

        Raises on unknown dependencies and on cycles — a deploy-file
        with either can never run, so it is rejected at parse time by
        :func:`parse_deployfile` calling this.
        """
        names = {s.name for s in self.steps}
        indegree: Dict[str, int] = {s.name: 0 for s in self.steps}
        for s in self.steps:
            for dep in s.depends:
                if dep not in names:
                    raise InvalidTypeDescription(
                        f"step {s.name!r} depends on unknown step {dep!r}"
                    )
                indegree[s.name] += 1
        ready = [s for s in self.steps if indegree[s.name] == 0]
        ordered: List[BuildStep] = []
        while ready:
            current = ready.pop(0)
            ordered.append(current)
            for s in self.steps:
                if current.name in s.depends:
                    indegree[s.name] -= 1
                    if indegree[s.name] == 0:
                        ready.append(s)
        if len(ordered) != len(self.steps):
            raise InvalidTypeDescription(
                f"deploy-file {self.name!r} has a dependency cycle"
            )
        return ordered

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

    def collected_env(self) -> Dict[str, str]:
        """Union of every step's environment definitions."""
        merged: Dict[str, str] = {}
        for s in self.steps:
            merged.update(s.env)
        return merged


def parse_deployfile(source) -> BuildRecipe:
    """Parse and validate a deploy-file document (string or Element).

    A string is decoded once per distinct document (every site of a
    rollout fetches the same deploy-file); the recipe is built fresh.
    """
    el = parse_shared(source) if isinstance(source, str) else source
    if el.tag != "Build":
        raise InvalidTypeDescription(f"deploy-file root must be <Build>, got <{el.tag}>")
    recipe = BuildRecipe(
        name=el.get("name", "unnamed"),
        base_dir=el.get("baseDir", "/tmp"),
        default_task=el.get("defaultTask", "Deploy"),
    )
    seen = set()
    for step_el in el.findall("Step"):
        name = step_el.get("name", "")
        if not name:
            raise InvalidTypeDescription("every <Step> needs a name")
        if name in seen:
            raise InvalidTypeDescription(f"duplicate step name {name!r}")
        seen.add(name)
        depends_raw = step_el.get("depends", "")
        step = BuildStep(
            name=name,
            task=step_el.get("task", ""),
            depends=[d.strip() for d in depends_raw.split(",") if d.strip()],
            base_dir=step_el.get("baseDir", recipe.base_dir),
            timeout=float(step_el.get("timeout", "60")),
            demand=float(step_el.get("demand", "0")),
        )
        for child in step_el.children:
            if child.tag == "Env":
                step.env[child.get("name", "")] = child.get("value", "")
            elif child.tag == "Property":
                # a Property may be (name, value) or a named pair like
                # (source=..., destination=...) flattened into attributes
                if child.get("name") is not None:
                    step.properties.append((child.get("name"), child.get("value", "")))
                else:
                    for key, value in child.attrib.items():
                        step.properties.append((key, value))
            elif child.tag == "Produces":
                step.produces.append(
                    ProducedFile(
                        path=child.get("path", ""),
                        size=int(child.get("size", "0")),
                        executable=child.get("executable", "false").lower() == "true",
                    )
                )
            elif child.tag == "Dialog":
                step.dialogs.append(
                    ExpectDialog(
                        expect=child.get("expect", ""),
                        send=child.get("send", ""),
                        delay=float(child.get("delay", "0.2")),
                    )
                )
        # Fig. 9 also writes <Property name="source" value=...> pairs as
        # separate children; both spellings are accepted above.
        recipe.steps.append(step)
    if not recipe.steps:
        raise InvalidTypeDescription(f"deploy-file {recipe.name!r} has no steps")
    recipe.ordered_steps()  # validates dependencies + acyclicity
    return recipe
