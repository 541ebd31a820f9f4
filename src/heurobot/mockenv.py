"""Deterministic kinematic mock of the four manipulation tasks.

Pure pose evolution, no forces: the platform and arm joints integrate
commanded velocities with explicit Euler at a fixed dt, fingertips follow a
simplified forward chain, and grasping is a binary attachment with
hysteresis. Arms carrying an attached load receive a seeded per-joint
disturbance as a stand-in for reaction forces: N(0, ``disturbance_std``) each
step, clipped at +/-3 sigma. It is drawn with ``random.normalvariate``'s
ratio-of-uniforms method, inlined, so its bytes do not depend on the stdlib's
implementation of that function. Everything is reproducible bit-for-bit from
(task, seed, action sequence).
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from typing import NamedTuple

from .core import (
    ARTICULATED_OBJECTS,
    GOAL_POINT_OBJECTS,
    READY_POSE,
    TASK_OBJECT,
    TASK_ROBOT,
    Action,
    ActionIndexMap,
    CheckedRecord,
    ObjectAttributes,
    Observation,
    Point3,
    RobotState,
    midpoint,
    wrap_angle,
)

# ---------------------------------------------------------------- geometry

ARM_MOUNT_X = 0.08  # m, arm base ahead of platform center
ARM_MOUNT_Y = 0.25  # m, lateral arm base offset (dual-arm robots, +/-)
ARM_MOUNTS = {1: (0.0,), 2: (ARM_MOUNT_Y, -ARM_MOUNT_Y)}  # arm count -> lateral offset per arm
ARM_LINK = 0.22  # m, both links of the planar chain
ARM_BASE_Z = 0.05  # m, arm base above platform height
ARM_SWING_SPAN = 0.25  # m, lateral fingertip travel per sin(q0)

PLATFORM_SPAWN_HEIGHT = 0.40  # m
HEIGHT_LIMITS = (0.10, 1.20)  # m, platform height travel
PLATFORM_TOP_HEIGHT = 0.25  # m, top surface of the bucket target platform
PLATFORM_EXTENT = 0.30  # m, radius of the target platform top

DETACH_OPEN_STEPS = 3  # consecutive opening commands before release
NOISE_TRUNCATION = 3.0  # disturbance draws clipped at 3 sigma
NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)  # ratio-of-uniforms bound, as in random.normalvariate

CHAIR_GRIP_HALF_DEPTH = 0.16  # m
CHAIR_GRIP_HALF_WIDTH = 0.34  # m


def finger_local(joints: Sequence[float], mount_y: float) -> Point3:
    """Fingertip position in the platform frame (x forward, y left, z up)."""
    reach = ARM_MOUNT_X + ARM_LINK * (math.cos(joints[1]) + math.cos(joints[1] + joints[2]))
    lateral = mount_y + ARM_SWING_SPAN * math.sin(joints[0])
    rise = ARM_BASE_Z + ARM_LINK * (math.sin(joints[1]) + math.sin(joints[1] + joints[2]))
    return reach, lateral, rise


def fingertips(platform: list[float], joints: list[list[float]]) -> tuple[Point3, ...]:
    """World fingertip positions, one per arm, for a platform pose and arm joints."""
    px, py, ph, yaw = platform
    cos_y, sin_y = math.cos(yaw), math.sin(yaw)
    out = []
    for q, mount in zip(joints, ARM_MOUNTS[len(joints)]):
        reach, lateral, rise = finger_local(q, mount)
        out.append((px + cos_y * reach - sin_y * lateral, py + sin_y * reach + cos_y * lateral, ph + rise))
    return tuple(out)


READY_FINGER_FORWARD, _, READY_FINGER_RISE = finger_local(READY_POSE, 0.0)  # ~0.35 m, ~0.15 m
_SPAWN_FINGER_Z = PLATFORM_SPAWN_HEIGHT + READY_FINGER_RISE


# ---------------------------------------------------------------- config

FIELD_MAX = 100.0  # upper bound of every float field of EnvConfig
MAX_STEPS = 10**6  # upper bound of EnvConfig.max_steps


class _EnvConfigFields(NamedTuple):
    dt: float = 0.05  # s per step
    linear_velocity_scale: float = 1.0  # m/s per unit command
    angular_velocity_scale: float = 1.0  # rad/s per unit command
    disturbance_std: float = 0.01  # rad per step, attached arms only
    grasp_radius: float = 0.05  # m, attach distance
    door_success_fraction: float = 0.9
    drawer_success_fraction: float = 0.9
    bucket_xy_tolerance: float = 0.10  # m
    bucket_height_tolerance: float = 0.05  # m
    chair_xy_tolerance: float = 0.15  # m
    max_steps: int = 200
    rng_seed: int = 0


class EnvConfig(CheckedRecord, _EnvConfigFields):
    """Tunables of the mock environment; defaults are the reference setup.

    Every config lies in one envelope: ``max_steps`` is an integer in
    [1, ``MAX_STEPS``], ``rng_seed`` any integer, and every other field a
    number in (0, ``FIELD_MAX``], ``disturbance_std`` 0 included. With
    actions in [-1, 1], one step then moves the platform at most
    ``FIELD_MAX**2`` m and a joint at most ``FIELD_MAX**2 + 3 * FIELD_MAX``
    rad, so no episode leaves the finite floats and nothing downstream
    checks for them again.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if name == "max_steps":
                if type(value) is not int or not 1 <= value <= MAX_STEPS:
                    raise ValueError(f"max_steps must be an integer in [1, {MAX_STEPS}], got {_shown(value)}")
            elif name == "rng_seed":
                check_seed(value, name)
            elif name == "disturbance_std":
                if type(value) not in (int, float) or not 0 <= value <= FIELD_MAX:
                    raise ValueError(f"disturbance_std must be a number in [0, {FIELD_MAX}], got {_shown(value)}")
            elif type(value) not in (int, float) or not 0 < value <= FIELD_MAX:
                raise ValueError(f"{name} must be a number in (0, {FIELD_MAX}], got {_shown(value)}")
        return self

    @classmethod
    def from_mapping(cls, data: dict) -> "EnvConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(cls._fields)
        if unknown:
            raise ValueError(f"unknown environment config keys: {sorted(unknown)}")
        return cls(**data)


def _shown(value: object) -> str:
    """``repr(value)``, or the size of an int too long for the interpreter to print."""
    try:
        return repr(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        return f"an integer of {value.bit_length()} bits"


def check_seed(seed: object, name: str = "seed") -> int:
    """``seed`` itself if it is an int; anything else, a bool included, raises a
    ValueError that starts with ``name``. So does an int too long to print,
    since ``reset`` prints the seed into its stream seeds."""
    if type(seed) is not int:
        raise ValueError(f"{name} must be an integer, got {seed!r}")
    try:
        str(seed)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise ValueError(f"{name} must be an integer short enough to print, got one of {seed.bit_length()} bits") from None
    return seed


# ---------------------------------------------------------------- layout


class Layout(NamedTuple):
    """Episode geometry drawn at reset. Fields unused by a task stay None."""

    robot_xy: tuple[float, float]
    robot_yaw: float
    handle0: Point3 | None = None  # door/drawer grip point at articulation 0
    axis: tuple[float, float] | None = None  # articulation axis, outward
    lever: float | None = None  # handle travel per unit articulation: hinge radius (m, door) or 1.0 (drawer)
    art_target: float | None = None  # rad (door) or m (drawer)
    art_range: float | None = None  # articulation hard stop
    object_xy: tuple[float, float] | None = None
    object_yaw: float = 0.0
    rim_radius: float | None = None  # m, bucket rim circle
    object_height: float | None = None  # m, bucket rim above its base
    grip_z: float | None = None  # m, chair grip band height
    target: tuple[float, float] | None = None


def _sample_layout(object_kind: str, rng: random.Random) -> Layout:
    rx = rng.uniform(-0.05, 0.05)
    ry = rng.uniform(-0.05, 0.05)
    if object_kind in ARTICULATED_OBJECTS:
        yaw0 = rng.uniform(-0.20, 0.20)
        bearing = rng.uniform(-0.35, 0.35)
        dist = rng.uniform(0.60, 0.85)
        handle_z = rng.uniform(0.45, 0.68)
        ux, uy = math.cos(bearing), math.sin(bearing)
        handle0 = (rx + dist * ux, ry + dist * uy, handle_z)
        if object_kind == "door":
            lever = rng.uniform(0.28, 0.40)
            art_target = rng.uniform(0.50, 0.70)
            art_range = art_target + 0.15
        else:
            lever = 1.0
            art_target = rng.uniform(0.22, 0.30)
            art_range = art_target + 0.08
        return Layout(
            robot_xy=(rx, ry),
            robot_yaw=yaw0,
            handle0=handle0,
            axis=(-ux, -uy),
            lever=lever,
            art_target=art_target,
            art_range=art_range,
            object_xy=(handle0[0] + 0.25 * ux, handle0[1] + 0.25 * uy),
            object_yaw=wrap_angle(bearing + math.pi),
        )
    if object_kind == "bucket":
        yaw0 = rng.uniform(-0.15, 0.15)
        bearing = rng.uniform(-1.5, 1.5)
        dist = rng.uniform(0.33, 0.37)
        rim_radius = rng.uniform(0.25, 0.27)
        # no height-align step exists for this task, so the rim must spawn
        # within the grasp ball of the ready-pose fingertip height
        height = rng.uniform(_SPAWN_FINGER_Z - 0.02, _SPAWN_FINGER_Z + 0.02)
        target_bearing = bearing + rng.uniform(-0.8, 0.8)
        target_dist = rng.uniform(0.70, 1.00)
        return Layout(
            robot_xy=(rx, ry),
            robot_yaw=yaw0,
            object_xy=(rx + dist * math.cos(bearing), ry + dist * math.sin(bearing)),
            object_yaw=rng.uniform(-math.pi, math.pi),
            rim_radius=rim_radius,
            object_height=height,
            target=(rx + target_dist * math.cos(target_bearing), ry + target_dist * math.sin(target_bearing)),
        )
    # chair
    yaw0 = rng.uniform(-0.04, 0.04)
    cx = rx + rng.uniform(0.60, 0.76)
    cy = ry + rng.uniform(-0.04, 0.04)
    grip_z = rng.uniform(0.45, 0.68)
    return Layout(
        robot_xy=(rx, ry),
        robot_yaw=yaw0,
        object_xy=(cx, cy),
        object_yaw=rng.uniform(-0.06, 0.06),
        grip_z=grip_z,
        target=(cx + rng.uniform(1.0, 1.5), cy + rng.uniform(-0.08, 0.08)),
    )


# ---------------------------------------------------------------- state


class EnvState:
    """All mutable episode state; every observation is built from it.

    Built at the spawn state: the platform at the layout's pose and
    ``PLATFORM_SPAWN_HEIGHT``, every arm at ``READY_POSE`` and open, the
    object at the layout's pose. Restoring a (deep) copy of it restores the
    episode exactly, noise stream included. Door and drawer keep
    ``object_xy``/``object_yaw`` at the layout's cabinet pose; only their
    ``articulation`` moves.
    """

    __slots__ = (
        "layout", "noise_rng", "platform", "joints", "fingers", "grasping", "open_counts",
        "object_xy", "object_yaw", "object_z", "articulation", "carry", "step", "done",
    )

    def __init__(self, layout: Layout, noise_rng: random.Random, n_arms: int) -> None:
        self.layout = layout
        self.noise_rng = noise_rng
        self.platform = [*layout.robot_xy, PLATFORM_SPAWN_HEIGHT, layout.robot_yaw]  # x, y, height (m), yaw (rad)
        self.joints = [list(READY_POSE) for _ in range(n_arms)]  # rad, one list per arm
        self.fingers = fingertips(self.platform, self.joints)  # at the current pose, one per arm
        self.grasping = [False] * n_arms
        self.open_counts = [0] * n_arms  # per arm, consecutive opening commands while grasping; 0 while not
        self.object_xy = layout.object_xy
        self.object_yaw = layout.object_yaw
        self.object_z = 0.0  # bucket base above ground
        self.articulation = 0.0
        # held object's (x, y, z, yaw) offset in the mid-finger frame; set
        # exactly while every arm of a bucket or chair env grasps
        self.carry: tuple[float, float, float, float] | None = None
        self.step = 0
        self.done = False


class MockEnv:
    """Seeded kinematic environment with a gym-style reset/step surface.

    ``reset`` and ``step`` both return ``(observation, done)``. ``step``
    consumes one action vector and raises ``done`` once the task's success
    predicate holds or the step cap is reached; ``reset`` returns ``done``
    False even where a config's tolerances count the spawn state as a
    success, so every episode takes at least one step. All episode state
    lives in ``state``; the other attributes are per-env constants.
    """

    def __init__(self, task_kind: str, config: EnvConfig | None = None):
        if task_kind not in TASK_OBJECT:
            raise ValueError(f"unknown task kind {task_kind!r}")
        self.object_kind = TASK_OBJECT[task_kind]
        self.config = config if config is not None else EnvConfig()
        self.robot_config = TASK_ROBOT[task_kind]
        self.index_map = ActionIndexMap.for_robot(self.robot_config)
        self.state: EnvState | None = None

    # ------------------------------------------------------------- reset

    def reset(self, seed: int) -> tuple[Observation, bool]:
        """Start an episode; ``seed`` must be an int, and a bool is not one."""
        check_seed(seed)
        cfg = self.config
        layout = _sample_layout(self.object_kind, random.Random(f"{cfg.rng_seed}:{seed}:layout"))
        noise_rng = random.Random(f"{cfg.rng_seed}:{seed}:noise")
        self.state = EnvState(layout, noise_rng, len(self.robot_config.arms))
        return self._observation(), False

    # ------------------------------------------------------------- step

    def step(self, action: Action) -> tuple[Observation, bool]:
        state = self.state
        if state is None:
            raise RuntimeError("reset() must be called before step()")
        if state.done:
            raise RuntimeError("episode already done; reset() to start a new one")
        dim = len(action) if isinstance(action, (tuple, list)) else None  # a set, str or bytes is no action
        if dim != self.index_map.dim:
            raise ValueError(f"action dimension {dim} != {self.index_map.dim}")
        for v in action:
            try:
                if -1.0 <= v <= 1.0:  # NaN fails the test too
                    continue
            except TypeError:  # not a number
                pass
            raise ValueError("action components must lie in [-1, 1]")
        cfg = self.config
        lin = cfg.linear_velocity_scale * cfg.dt
        ang = cfg.angular_velocity_scale * cfg.dt

        p = state.platform
        p[0] += action[0] * lin
        p[1] += action[1] * lin
        p[3] = wrap_angle(p[3] + action[2] * ang)
        p[2] = min(max(p[2] + action[3] * lin, HEIGHT_LIMITS[0]), HEIGHT_LIMITS[1])

        rand = state.noise_rng.random
        log = math.log
        std = cfg.disturbance_std
        bound = NOISE_TRUNCATION * std
        for q, slots, held in zip(state.joints, self.index_map.joint_slots, state.grasping):
            if not held:
                q[:] = [x + action[slot] * ang for x, slot in zip(q, slots)]
                continue
            # Reaction-force proxy on a loaded arm: integrate, then add
            # N(0, std) clipped at +/-bound. The draw is random.normalvariate
            # inlined (same uniforms, same arithmetic, same order); pinned by
            # test_inlined_disturbance_matches_normalvariate.
            for j, slot in enumerate(slots):
                while True:
                    u1 = rand()
                    u2 = 1.0 - rand()
                    z = NV_MAGICCONST * (u1 - 0.5) / u2
                    if z * z / 4.0 <= -log(u2):
                        break
                v = 0.0 + z * std
                q[j] = (q[j] + action[slot] * ang) + (-bound if v < -bound else (bound if v > bound else v))

        fingers = fingertips(p, state.joints)
        self._update_object(fingers, lin)
        self._update_attachments(action, fingers)
        state.fingers = fingers
        state.step += 1
        state.done = self.success() or state.step >= cfg.max_steps
        return self._observation(), state.done

    # ------------------------------------------------------------- success

    def success(self) -> bool:
        state = self.state
        if state is None:
            return False
        cfg = self.config
        lay = state.layout
        if self.object_kind == "door":
            return state.articulation >= cfg.door_success_fraction * lay.art_target
        if self.object_kind == "drawer":
            return state.articulation >= cfg.drawer_success_fraction * lay.art_target
        off_target = math.hypot(state.object_xy[0] - lay.target[0], state.object_xy[1] - lay.target[1])
        if self.object_kind == "bucket":
            return (
                not any(state.grasping)
                and off_target <= cfg.bucket_xy_tolerance
                and abs(state.object_z - PLATFORM_TOP_HEIGHT) <= cfg.bucket_height_tolerance
            )
        return off_target <= cfg.chair_xy_tolerance

    # ------------------------------------------------------------- internals

    def _update_object(self, fingers: tuple[Point3, ...], lin: float) -> None:
        """Object pose response to the (pre-transition) grasp state.

        ``state.fingers`` still holds the fingertips of the previous step.
        """
        state = self.state
        lay = state.layout
        if self.object_kind in ARTICULATED_OBJECTS:
            if state.grasping[0]:
                dx = fingers[0][0] - state.fingers[0][0]
                dy = fingers[0][1] - state.fingers[0][1]
                proj = dx * lay.axis[0] + dy * lay.axis[1]
                if proj > 0.0:  # articulated joints ratchet; plans never push back
                    state.articulation = min(state.articulation + proj * (1.0 / lay.lever), lay.art_range)
            return
        if state.carry is not None:
            mid = midpoint(fingers)
            yaw = state.platform[3]
            c, s = math.cos(yaw), math.sin(yaw)
            local_x, local_y, z_off, yaw_off = state.carry
            state.object_xy = (mid[0] + c * local_x - s * local_y, mid[1] + s * local_x + c * local_y)
            state.object_yaw = wrap_angle(yaw + yaw_off)
            if self.object_kind == "bucket":
                state.object_z = max(mid[2] + z_off, 0.0)
        elif self.object_kind == "bucket" and not any(state.grasping):
            # released load settles, rate-limited, onto whatever supports it
            dx = state.object_xy[0] - lay.target[0]
            dy = state.object_xy[1] - lay.target[1]
            support = PLATFORM_TOP_HEIGHT if math.hypot(dx, dy) <= PLATFORM_EXTENT else 0.0
            if state.object_z > support:
                state.object_z = max(support, state.object_z - lin)

    def _grip_distance(self, arm: int, fingers: tuple[Point3, ...]) -> float:
        """Distance from a fingertip to the object's grip feature."""
        state = self.state
        lay = state.layout
        fx, fy, fz = fingers[arm]
        if self.object_kind in ARTICULATED_OBJECTS:
            hx, hy, hz = self._handle_position()
            return math.sqrt((fx - hx) ** 2 + (fy - hy) ** 2 + (fz - hz) ** 2)
        ox, oy = state.object_xy
        if self.object_kind == "bucket":
            rim_z = state.object_z + lay.object_height
            radial = math.hypot(fx - ox, fy - oy) - lay.rim_radius
            return math.hypot(radial, fz - rim_z)
        # chair: point-to-box distance against the grip band, in the chair frame
        c, s = math.cos(state.object_yaw), math.sin(state.object_yaw)
        local_x = c * (fx - ox) + s * (fy - oy)
        local_y = -s * (fx - ox) + c * (fy - oy)
        dx = max(0.0, abs(local_x) - CHAIR_GRIP_HALF_DEPTH)
        dy = max(0.0, abs(local_y) - CHAIR_GRIP_HALF_WIDTH)
        return math.sqrt(dx * dx + dy * dy + (fz - lay.grip_z) ** 2)

    def _update_attachments(self, act: Action, fingers: tuple[Point3, ...]) -> None:
        state = self.state
        grasp_radius = self.config.grasp_radius
        for arm, slot in enumerate(self.index_map.finger_slots):
            cmd = act[slot]
            if not state.grasping[arm]:
                if cmd > 0.0 and self._grip_distance(arm, fingers) <= grasp_radius:
                    state.grasping[arm] = True
            else:
                if cmd < 0.0:
                    state.open_counts[arm] += 1
                    if state.open_counts[arm] >= DETACH_OPEN_STEPS:
                        state.grasping[arm] = False
                        state.open_counts[arm] = 0
                else:
                    state.open_counts[arm] = 0
        if not all(state.grasping):
            state.carry = None
        elif self.object_kind in GOAL_POINT_OBJECTS and state.carry is None:
            mid = midpoint(fingers)
            yaw = state.platform[3]
            c, s = math.cos(yaw), math.sin(yaw)
            ox, oy = state.object_xy
            state.carry = (
                c * (ox - mid[0]) + s * (oy - mid[1]),
                -s * (ox - mid[0]) + c * (oy - mid[1]),
                state.object_z - mid[2],
                wrap_angle(state.object_yaw - yaw),
            )

    def _handle_position(self) -> Point3:
        state = self.state
        lay = state.layout
        if self.object_kind in ARTICULATED_OBJECTS:
            shift = lay.lever * state.articulation
            return (
                lay.handle0[0] + lay.axis[0] * shift,
                lay.handle0[1] + lay.axis[1] * shift,
                lay.handle0[2],
            )
        ox, oy = state.object_xy
        if self.object_kind == "bucket":
            # representative grip point: the rim point nearest the robot
            dx = state.platform[0] - ox
            dy = state.platform[1] - oy
            norm = math.hypot(dx, dy)
            ux, uy = (dx / norm, dy / norm) if norm > 1e-9 else (1.0, 0.0)
            return (ox + lay.rim_radius * ux, oy + lay.rim_radius * uy, state.object_z + lay.object_height)
        c, s = math.cos(state.object_yaw), math.sin(state.object_yaw)
        return (ox - c * CHAIR_GRIP_HALF_DEPTH, oy - s * CHAIR_GRIP_HALF_DEPTH, lay.grip_z)

    def _observation(self) -> Observation:
        state = self.state
        kind = self.object_kind
        px, py, ph, yaw = state.platform
        # positional: a keyword call to a NamedTuple costs about twice as much, once per step
        robot = RobotState(px, py, ph, yaw, tuple(map(tuple, state.joints)), state.fingers, tuple(state.grasping))
        obj = ObjectAttributes(
            kind,
            self._handle_position(),
            (state.object_xy[0], state.object_xy[1], state.object_yaw),
            state.articulation if kind in ARTICULATED_OBJECTS else None,
            state.layout.target,
        )
        return Observation(robot, obj, state.step)
