"""Plain-loop right conjugation, the oracles of the counted chain rule
``words._turns`` / ``words._rotated`` and so of
``morphisms._sturmian_images``, ``matrices.brute_force_pairs`` and the
preservation checker's projection chains: a step on the ``Morphism``
type, and the forward and back walks on letter strings, one rotation
per step."""

from ietwords import DomainError, FiniteWord, Morphism


def right_conjugate_step(morphism: Morphism) -> Morphism | None:
    """Conjugate by the shared first letter, or ``None`` when the images
    do not all start with the same letter."""
    if not morphism.is_nonerasing:
        raise DomainError("right conjugation needs a non-erasing morphism")
    first = {image.letters[0] for image in morphism.images}
    if len(first) != 1:
        return None
    head = bytes([first.pop()])
    return Morphism(
        morphism.alphabet,
        tuple(
            FiniteWord(morphism.alphabet, image.letters[1:] + head)
            for image in morphism.images
        ),
    )


def forward_walk(images: tuple[bytes, ...], steps: int) -> list[tuple[bytes, ...]]:
    """``images`` and its right conjugates in turn, each rotating every
    image left by their shared first letter: up to the first whose images
    are not all non-empty with one first letter, and at most ``steps``
    rotations."""
    chain = [images]
    for _ in range(steps):
        if not all(images) or len({image[0] for image in images}) != 1:
            break
        images = tuple(image[1:] + image[:1] for image in images)
        chain.append(images)
    return chain


def back_walk(images: tuple[bytes, ...], steps: int) -> list[tuple[bytes, ...]]:
    """``images`` rotated right in turn by their shared last letter: up
    to the first whose images are not all non-empty with one last
    letter, and at most ``steps`` rotations, so that a periodic key stops
    too."""
    chain = [images]
    for _ in range(steps):
        if not all(images) or len({image[-1] for image in images}) != 1:
            break
        images = tuple(image[-1:] + image[:-1] for image in images)
        chain.append(images)
    return chain
